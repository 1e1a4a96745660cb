"""Cluster hosts of the DPR server gate, and the D-FASTER worker (Figure 6).

The server side of the protocol — world-line gate, ``Vs`` fast-forward,
dependency recording, execute, seal/persist reporting, the reply memo —
is :class:`~repro.core.libdpr.server.DprServer`, written once and
sans-IO.  :class:`GateHost` is what every *networked* host of that gate
shares: it turns the gate's seal/persist reports into ``SealReport`` /
``PersistReport`` messages (and replication-log entries and the
``worker.persist_lag`` span), dispatches the control messages
(``CutBroadcast`` / ``RollbackCommand`` / ``ReplicaAck``), validates
leases, and frames replies.  What is left to a concrete host is what is
physically its own: timing, queues and threads, how a flush reaches
storage, crash and restart.

:class:`DFasterWorker` owns one shard (a StateObject engine — the
counters-only :class:`~repro.cluster.modeled.ModeledStore` for
performance runs or a real
:class:`~repro.faster.state_object.FasterStateObject` for functional
runs), a pool of server threads, a checkpoint loop driving ``Commit()``
every interval, and a FIFO flusher performing the storage writes.

Timing comes from the :class:`~repro.cluster.costmodel.CostModel`:
server threads charge per-batch service time, inflated while the
checkpoint machinery is in its transition window, while a flush is
outstanding (backend-dependent), and when checkpoints queue up faster
than storage drains them (the Figure 14 thrash regime).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.cluster.costmodel import CostModel
from repro.cluster.messages import (
    BatchReply,
    BatchRequest,
    CutBroadcast,
    Heartbeat,
    PersistReport,
    ReplicaAck,
    RollbackCommand,
    RollbackDone,
    SealReport,
)
from repro.cluster.ownership import LeaseHolder, StaleLeaseError
from repro.cluster.stats import ClusterStats
from repro.core.cuts import DprCut
from repro.core.libdpr.server import IN_SERVICE, OK, DprServer
from repro.core.state_object import StateObject
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.queues import Queue
from repro.sim.rand import make_rng
from repro.sim.storage import StorageDevice


class GateHost(LeaseHolder):
    """A network endpoint serving one shard through a :class:`DprServer`.

    The host is the gate's ``finder`` (it forwards seal/persist reports
    to the finder service and the replica chain) and supplies its
    ``flush_fn`` (``_flush``: how a sealed version reaches storage).
    """

    #: Whether a request's explicit ``ops`` run on this host's engine.
    #: False where an external store executes the body and the engine
    #: only carries the DPR bookkeeping (D-Redis).
    EXECUTES_OPS = True

    def __init__(self, env: Environment, net: Network, address: str,
                 engine: StateObject, device: StorageDevice, cost: CostModel,
                 finder_address: Optional[str],
                 manager_address: Optional[str], dpr_enabled: bool,
                 checkpoint_interval: float):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        self.engine = engine
        self.gate = DprServer(engine, self, self._flush)
        self.device = device
        self.cost = cost
        self.finder_address = finder_address
        self.manager_address = manager_address
        self.dpr_enabled = dpr_enabled
        self.checkpoint_interval = checkpoint_interval
        #: Host-cached DPR cut, piggybacked on every reply.
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
        #: A ``Commit()`` is in flight (the next must not overlap it).
        self._machine_busy = False
        #: Optional :class:`~repro.cluster.replication.ReplicationSource`
        #: when this host heads a primary/replica chain: "ok" replies
        #: are then held until every replica acks the batch's log entry.
        self.replication = None

    @property
    def duplicate_batches(self) -> int:
        """Duplicate BatchRequests the gate's reply memo suppressed."""
        return self.gate.duplicate_batches

    # -- the gate's report interface ---------------------------------------

    def register_object(self, object_id: str) -> None:
        """Membership is the finder service's; nothing to do here."""

    def report_seal(self, descriptor) -> None:
        version = descriptor.token.version
        if self.env.tracer is not None:
            self.env.tracer.begin_span(
                "worker.persist_lag", (self.engine.object_id, version),
                self.env.now)
        if self.dpr_enabled and self.finder_address:
            self.net.send(self.address, self.finder_address,
                          SealReport(descriptor), size_ops=1)
        if self.replication is not None:
            self.replication.log_seal(version)

    def report_persisted(self, token) -> None:
        if self.env.tracer is not None:
            self.env.tracer.end_span("worker.persist_lag",
                                     (token.object_id, token.version),
                                     self.env.now, worker=self.address)
        if self.dpr_enabled and self.finder_address:
            self.net.send(self.address, self.finder_address,
                          PersistReport(token.object_id, token.version),
                          size_ops=1)
        if self.replication is not None:
            self.replication.log_persist(token.version)

    def _flush_finished(self, descriptor, wrote: bool = True) -> None:
        """A flush left storage: report it durable — unless the write
        failed or a rollback dropped the version meanwhile."""
        version = descriptor.token.version
        if not (wrote and self.gate.persisted(version)):
            if self.env.tracer is not None:
                self.env.tracer.cancel_span(
                    "worker.persist_lag", (self.engine.object_id, version))

    # -- message routing ---------------------------------------------------

    def _control(self, payload) -> None:
        """Route one inbound control message (never yields)."""
        if isinstance(payload, CutBroadcast):
            self.cached_cut = payload.cut
            self.cached_max_version = payload.max_version
        elif isinstance(payload, RollbackCommand):
            self.env.process(self._handle_rollback(payload),
                             name=f"rollback:{self.address}")
        elif isinstance(payload, ReplicaAck):
            if self.replication is not None:
                self.replication.handle_ack(payload)
        else:
            # Reports and rollback acks are for services, not hosts.
            raise TypeError(f"{self.address} cannot handle a "
                            f"{type(payload).__name__} message")

    def _answer_duplicate(self, request: BatchRequest, cached) -> None:
        """The gate's memo refused ``request`` as a duplicate.

        A duplicate of an already-served batch is answered from the
        memo; a duplicate of a batch still in service is dropped — the
        original's reply answers both copies.
        """
        # A reply still held for replica acks must not leak out through
        # the duplicate path either.
        if cached is not IN_SERVICE and (
                self.replication is None
                or not self.replication.is_held(
                    (request.session_id, request.batch_id))):
            self.net.send(self.address, request.reply_to, cached,
                          size_ops=request.op_count)

    # -- serving ----------------------------------------------------------

    def _not_owner(self, request: BatchRequest) -> BatchReply:
        return BatchReply(
            request.batch_id, request.session_id, self.engine.object_id,
            "not_owner", self.gate.world_line, 0, request.op_count, None,
            self.env.now, None, request.partition)

    def _bounce_unowned(self, request: BatchRequest) -> Optional[BatchReply]:
        """Ownership validation against the local lease view (§5.3): a
        stale lease surfaces as a bounced batch, never as a crash."""
        if self.ownership is None or request.partition is None:
            return None
        try:
            self.ownership.validate(request.partition)
        except StaleLeaseError:
            self.not_owner_rejections += 1
            return self._not_owner(request)
        # Renew-on-serve: actively served partitions keep their lease
        # alive without metadata traffic.
        self.ownership.renew(request.partition)
        return None

    def _gated(self, request: BatchRequest,
               replayed_at: Optional[int] = None) -> BatchReply:
        """Push one batch through the gate and frame the reply.

        ``replayed_at`` is set when a replica re-executes a primary's
        batch: ``min_version`` forces the engine onto the version the
        primary executed at (fast-forwarding seals any gap exactly as
        §3.4 does on the primary), and the world-line gate is skipped —
        the stream itself is the ordering authority.
        """
        if replayed_at is not None:
            world_line, min_version, deps, cut = (
                None, replayed_at, request.deps, None)
        elif self.dpr_enabled:
            world_line, min_version, deps, cut = (
                request.world_line, request.min_version, request.deps,
                self.cached_cut)
        else:
            world_line, min_version, deps, cut = None, 0, (), None
        gate = self.gate
        if request.ops is None or not self.EXECUTES_OPS:
            status, version = gate.execute(
                ("batch", request.op_count, request.write_count),
                request.session_id,
                request.first_seqno + request.op_count - 1,
                world_line, min_version, deps)
            results = None
        else:
            status, versions, results = gate.execute_ops(
                request.ops, request.session_id, request.first_seqno,
                world_line, min_version, deps)
            version = versions[-1] if versions else 0
        return BatchReply(
            request.batch_id, request.session_id, self.engine.object_id,
            status, self.engine.world_line.current, version,
            request.op_count, cut, self.env.now, results)

    def _execute(self, request: BatchRequest) -> BatchReply:
        """Validate ownership, run the gated execute, memoize the reply.

        "not_owner" bounces are deliberately NOT memoized: a client that
        regains ownership information may re-send the same logical batch
        under the same id once the partition transfers back, and a
        cached bounce would answer it forever.  Bounces are also cheap
        to recompute, so duplicate suppression loses nothing.
        """
        key = (request.session_id, request.batch_id)
        if self.ownership is not None:  # off the per-batch path otherwise
            reply = self._bounce_unowned(request)
            if reply is not None:
                self.gate.release(key)
                return reply
        reply = self._gated(request)
        self.gate.remember(key, reply)
        return reply

    def _send_reply(self, request: BatchRequest, reply: BatchReply) -> None:
        """Release a reply to the client — or hold it for replica acks.

        When this host heads a replication chain, an "ok" reply is
        handed to the :class:`~repro.cluster.replication.ReplicationSource`,
        which ships the batch to every replica and releases the reply
        only once all of them ack it: no client ever learns of a write
        a promoted replica could be missing.  Bounces and refusals
        carry no state and go straight out.
        """
        source = self.replication
        if source is not None and reply.status == OK:
            source.hold_and_send(request, reply)
        else:
            self.net.send(self.address, request.reply_to, reply,
                          size_ops=request.op_count)

    # -- Commit() / Restore() ---------------------------------------------

    def request_checkpoint(self) -> bool:
        """Seal a version out of band (transfer step 2, §5.3).

        The elastic coordinator calls this when a migration is waiting
        on an idle old owner that would otherwise never reach a
        checkpoint boundary.  Returns False when the host cannot
        comply (down, stopped, or a checkpoint already in flight —
        which itself provides the boundary the caller wants).
        """
        if self.crashed or not self.running or self._machine_busy:
            return False
        self.env.process(self._run_checkpoint(),
                         name=f"forced-ckpt:{self.address}")
        return True

    def _handle_rollback(self, command: RollbackCommand):
        """Roll back to the commanded cut on the new world-line (§4).

        The engine restore is logically immediate (readers stop seeing
        rolled-back versions the moment THROW begins); the delay models
        the host's convergence before it reports done.  Operations keep
        being served throughout — that is the point of non-blocking
        recovery.

        Idempotent under duplication and retransmission: the world-line
        check makes the restore a no-op for stale or repeated commands,
        and every copy (re-)sends ``RollbackDone`` — which is exactly
        the ack the manager's retransmit loop is waiting on.
        """
        env = self.env
        applied = command.world_line > self.gate.world_line
        if applied:
            restored = self.gate.restore(
                command.cut.version_of(self.engine.object_id),
                command.world_line)
            self.cached_cut = command.cut
            if self.replication is not None:
                # Ship the version we actually landed on, not the cut
                # target — replicas must restore to the identical one.
                self.replication.log_rollback(command.world_line, restored)
        delay = self._rollback_delay(applied)
        if delay:
            yield delay
        if applied and env.tracer is not None:
            env.tracer.span("worker.rollback", env.now, delay,
                            worker=self.address,
                            world_line=command.world_line)
        if self.manager_address:
            self.net.send(self.address, self.manager_address,
                          RollbackDone(self.address, command.world_line),
                          size_ops=1)


class DFasterWorker(GateHost):
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
        super().__init__(env, net, address, engine, device, cost,
                         finder_address, manager_address, dpr_enabled,
                         checkpoint_interval)
        self.stats = stats
        self.vcpus = vcpus
        self.checkpoints_enabled = checkpoints_enabled
        self._rng = make_rng(rng)

        #: Batches awaiting a server thread.
        self.work = Queue(env, name=f"work:{address}")
        #: Sealed descriptors awaiting their storage write, FIFO.
        self._flush_queue = Queue(env, name=f"flush:{address}")
        #: version -> event the checkpoint that sealed it waits on.
        self._flush_waiters: Dict[int, object] = {}
        #: Transition-window end time (ops are slower before it).
        self._slow_until = 0.0
        self._flushing = False
        #: Checkpoints that came due while the machine was busy.
        self._missed_checkpoints = 0
        self.batches_served = 0
        self.checkpoints_taken = 0
        #: Heartbeat period; the cluster manager detects a crash when
        #: heartbeats stop (§4.1's external failure detector).
        self.heartbeat_interval = 20e-3

        if not external_dispatch:
            # Sink mode: _dispatch is a plain function, so routing each
            # inbound message costs one _K_SINK dispatch, no generator.
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
                env.process(self._serve(),
                            name=f"server:{address}/{thread}")

    # -- message routing --------------------------------------------------

    def _dispatch(self, message):
        """Inbox sink handler: route one inbound message (never yields)."""
        payload = message.payload
        if isinstance(payload, BatchRequest):
            cached = self.gate.admit((payload.session_id, payload.batch_id))
            if cached is None:
                self.work.put(payload)
            else:
                self._answer_duplicate(payload, cached)
        else:
            self._control(payload)

    # -- serving -------------------------------------------------------------

    def _slowdown(self) -> float:
        factor = 1.0
        if self.env.now < self._slow_until:
            factor *= self.cost.TRANSITION_SLOWDOWN
        if self._flushing:
            factor *= self.cost.FLUSH_SLOWDOWN.get(self.device.kind, 1.0)
        if self._missed_checkpoints > 0:
            factor *= self.cost.THRASH_SLOWDOWN
        return factor

    def _rcu_probability(self) -> float:
        engine = self.engine
        writes = getattr(engine, "writes_since_seal", 0.0)
        keys = getattr(engine, "effective_keys", 0.0)
        return self.cost.rcu_probability(writes, keys,
                                         self.checkpoints_enabled)

    def _serve(self, only: Optional[BatchRequest] = None):
        """The one serve routine: charge a batch's service time,
        execute it, send the reply.  A pool thread runs it forever off
        the work queue; a co-located vCPU (§7.3) ``yield from``s it for
        the single batch ``only`` that it took off that queue itself."""
        env = self.env
        # Hoists: this loop turns over once per served batch.
        work = self.work
        batch_time = self.cost.server_batch_time
        execute = self._execute
        send_reply = self._send_reply
        address = self.address
        request = only
        while True:
            if only is None:
                # Channel wait — resumed with the next batch, no get() Event.
                request = yield work
                if self.crashed:
                    continue  # request raced the crash; drop it
            write_fraction = (request.write_count / request.op_count
                              if request.op_count else 0.0)
            service = batch_time(
                request.op_count, write_fraction, self._rcu_probability(),
                self._slowdown(), dpr=self.dpr_enabled)
            yield service
            tracer = env.tracer
            if tracer is not None:
                tracer.span("worker.batch_service", env.now, service,
                            worker=address)
            reply = execute(request)
            self.batches_served += 1
            send_reply(request, reply)
            if only is not None:
                return

    # -- checkpointing (Commit) ----------------------------------------------

    def _checkpoint_loop(self):
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
        # The gate applies the §3.4 laggard rule, seals, reports, and
        # queues the flush (autoseals first: flushes are FIFO).
        descriptor = self.gate.commit(
            self.cached_max_version if self.dpr_enabled else 0)
        self.checkpoints_taken += 1
        # Transition window: epoch refreshes + post-fold-over RCU churn.
        self._slow_until = env.now + self.cost.TRANSITION_WINDOW
        flushed = env.event(name=f"flush-done:{self.address}")
        self._flush_waiters[descriptor.token.version] = flushed
        yield self.cost.TRANSITION_WINDOW
        yield flushed
        self._machine_busy = False

    def _flush(self, descriptor) -> None:
        """The gate's flush hook: queue the storage write."""
        self._flush_queue.put(descriptor)

    def _flusher(self):
        """FIFO checkpoint flushes; durability reports via the gate."""
        env = self.env
        while True:
            descriptor = yield self._flush_queue
            # A rollback may have dropped this sealed version before its
            # flush ran; then there is nothing to write.
            wrote = False
            if self.engine.is_sealed(descriptor.token.version):
                self._flushing = True
                flush_started = env.now
                try:
                    yield self.device.write(self.engine.checkpoint_bytes(
                        descriptor.token.version))
                    wrote = True
                except IOError:
                    pass  # device crashed mid-flush; never persists
                self._flushing = False
                if wrote and env.tracer is not None:
                    env.tracer.span("worker.flush", env.now,
                                    env.now - flush_started,
                                    worker=self.address)
            self._flush_finished(descriptor, wrote)
            done = self._flush_waiters.pop(descriptor.token.version, None)
            if done is not None:
                done.succeed()

    # -- recovery (Restore) ---------------------------------------------------------

    def _rollback_delay(self, applied: bool) -> float:
        """THROW convergence before the worker reports done."""
        return self.cost.ROLLBACK_WINDOW

    # -- crash & restart -------------------------------------------------------------

    def _heartbeat_loop(self):
        """Periodic liveness signal to the cluster manager (§4.1)."""
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
        self.gate.forget()
        self.device.fail()
        if self.replication is not None:
            self.replication.on_crash()

    def restart(self, cut: DprCut, world_line: int,
                resume_version: int = 0) -> None:
        """Cold restart from durable state, as the cluster manager's
        bounded-time restart (§4.1): restore the shard to the frozen
        cut on the new world-line and rejoin the network."""
        self.device.repair()
        restored = self.gate.restore(cut.version_of(self.engine.object_id),
                                     world_line, resume_version)
        self.cached_cut = cut
        if self.replication is not None:
            # New stream epoch: the volatile log died with the process.
            self.replication.on_restart(world_line, restored,
                                        resume_version)
        self._missed_checkpoints = 0
        self._machine_busy = False
        self._flushing = False
        self._slow_until = 0.0
        self.gate.forget()
        self.crashed = False
        self.net.set_up(self.address, True)

    # -- control ---------------------------------------------------------------------

    def stop(self) -> None:
        self.running = False
