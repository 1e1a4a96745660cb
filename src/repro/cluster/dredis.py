"""The D-Redis deployment and its §7.5 baselines.

Three wiring modes on the same shards:

- ``PLAIN``  — clients talk straight to the single-threaded Redis
  instance (vanilla Redis baseline);
- ``PROXY``  — a pass-through proxy forwards every packet (controls for
  the changed network pattern, which §7.5 shows is the dominant cost);
- ``DPR``    — the proxy runs libDPR: batch gating, version tracking,
  ``BGSAVE``-based ``Commit()`` under an exclusive latch, and
  restart-based ``Restore()``.

Durability levels for the Figure 19 study ride on the Redis instance:
``aof="always"`` (synchronous), ``aof="everysec"``-ish background
appends (eventual), or none.
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.cluster.client import ClientMachine
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
from repro.cluster.metadata import MetadataStore
from repro.cluster.modeled import ModeledStore
from repro.cluster.ownership import LeaseHolder, StaleLeaseError
from repro.cluster.services import ClusterManager, FinderService
from repro.cluster.stats import ClusterStats
from repro.cluster.worker import REPLY_CACHE
from repro.core.finder import ApproximateDprFinder
from repro.core.state_object import WorldLineMismatch
from repro.core.worldline import WorldLineDecision
from repro.sim.faults import FaultPlan
from repro.sim.kernel import Environment
from repro.sim.network import Network, NetworkConfig
from repro.sim.queues import Queue
from repro.sim.rand import make_rng, spawn
from repro.sim.storage import StorageDevice, StorageKind
from repro.workloads.ycsb import WorkloadSpec, YCSB_A


class RedisMode(enum.Enum):
    PLAIN = "plain"
    PROXY = "proxy"
    DPR = "dpr"


@dataclass
class DRedisConfig:
    """Setup mirroring §7.5: one Redis + one proxy per shard VM."""

    n_shards: int = 8
    mode: RedisMode = RedisMode.DPR
    workload: WorkloadSpec = field(default_factory=lambda: YCSB_A)
    batch_size: int = 1024
    window: Optional[int] = None
    n_client_machines: int = 8
    client_threads: int = 2
    #: §7.5 runs five minutes with one checkpoint; scaled to sim length.
    checkpoint_interval: float = 1.0
    checkpoints_enabled: bool = True
    storage: StorageKind = StorageKind.LOCAL_SSD
    #: None | "always" | "everysec" — the Figure 19 durability levels.
    aof: Optional[str] = None
    seed: int = 42
    cost: CostModel = field(default_factory=CostModel)
    #: Chaos testing: a seeded fault-injection plan applied to the
    #: network and the metadata store (None = fault-free).
    faults: Optional[FaultPlan] = None
    #: Observability: a :class:`repro.obs.Tracer` shared by every layer
    #: of this cluster (None = tracing off, zero recording overhead).
    tracer: Optional[object] = None
    #: Replicas per shard (DPR mode only).  Each proxy streams its
    #: batch/seal log to this many standby
    #: :class:`~repro.cluster.replication.ReplicaNode` copies, which
    #: serve recoverable-prefix reads.  D-Redis failures stay on the
    #: cluster-wide §4.1 path (proxies are not heartbeat-monitored), so
    #: chains here buy read scale-out, not promotion.
    replication_factor: int = 0
    #: Simulated threads on each replica's read server.
    replica_vcpus: int = 4


class _RedisInstance:
    """The unmodified, single-threaded Redis process."""

    def __init__(self, env: Environment, cluster: "DRedisCluster",
                 shard_id: int):
        self.env = env
        self.cluster = cluster
        self.shard_id = shard_id
        #: Work items: (request, respond_fn).
        self.queue = Queue(env, name=f"redis-q:{shard_id}")
        #: BGSAVE latch: while set, the worker thread pauses.
        self.saving_pause = 0.0
        self.commands = 0
        env.process(self._loop(), name=f"redis:{shard_id}")

    def _loop(self):
        env = self.env
        cost = self.cluster.config.cost
        aof = self.cluster.config.aof
        while True:
            request, respond = yield self.queue  # channel wait, no get() Event
            if request == "BGSAVE":
                # The exclusive-latch window (§6): command stream pauses.
                yield cost.bgsave_pause
                respond(None)
                continue
            service = cost.redis_batch_time(
                request.op_count,
                aof_always=(aof == "always"),
                aof_eventual=(aof == "everysec"),
            )
            yield service
            if env.tracer is not None:
                env.tracer.span("worker.batch_service", env.now, service,
                                worker=f"redis-{self.shard_id}")
            self.commands += request.op_count
            respond(request)


class _DRedisProxy(LeaseHolder):
    """The D-Redis wrapper process on each shard VM (Figure 9).

    In PROXY mode it only forwards (charging forwarding cost); in DPR
    mode it additionally runs the libDPR server logic around the
    unmodified Redis instance, with a ModeledStore carrying the DPR
    bookkeeping and the BGSAVE/flush pair implementing ``Commit()``.
    """

    def __init__(self, env: Environment, cluster: "DRedisCluster",
                 shard_id: int, redis: _RedisInstance,
                 device: StorageDevice):
        self.env = env
        self.cluster = cluster
        self.shard_id = shard_id
        self.redis = redis
        self.device = device
        self.address = f"proxy-{shard_id}"
        self.endpoint = cluster.net.register(self.address)
        config = cluster.config
        self.dpr = config.mode is RedisMode.DPR
        workload = config.workload
        self.engine = ModeledStore(
            self.address,
            effective_keys=workload.effective_shard_keys(config.n_shards),
        )
        self.cached_cut = None
        self.cached_max_version = 0
        self.checkpoint_interval = config.checkpoint_interval
        self.running = True
        self.crashed = False
        #: Optional :class:`~repro.cluster.replication.ReplicationSource`
        #: streaming this proxy's batch/seal log to standby replicas.
        self.replication = None
        #: Optional lease-guarded ownership view (§5.3), mirroring
        #: DFasterWorker; set via ``LeaseHolder.attach_ownership``.
        self.ownership = None
        self._lease_metadata = None
        self.not_owner_rejections = 0
        #: Guard so a forced checkpoint never overlaps the periodic one
        #: (BGSAVE is an exclusive latch; overlapping Commits() would
        #: double-seal).
        self._committing = False
        #: Duplicate-request suppression, mirroring DFasterWorker: the
        #: network promises at-least-once only, and replaying a batch
        #: through Redis would double-apply it.
        self.duplicate_batches = 0
        self._replies: "OrderedDict[Tuple[str, int], Tuple[str, BatchReply]]" \
            = OrderedDict()
        self._inflight: set = set()
        #: Responses from Redis awaiting outbound forwarding.
        self._egress = Queue(env, name=f"proxy-out:{self.address}")
        env.process(self._receive_loop(), name=f"proxy:{self.address}")
        env.process(self._egress_loop(), name=f"proxy-out:{self.address}")
        if self.dpr and config.checkpoints_enabled:
            env.process(self._commit_loop(), name=f"proxy-ckpt:{self.address}")

    # -- request path -----------------------------------------------------

    def _receive_loop(self):
        env = self.env
        cost = self.cluster.config.cost
        while True:
            message = yield self.endpoint.inbox  # channel wait, no get() Event
            payload = message.payload
            if isinstance(payload, CutBroadcast):
                self.cached_cut = payload.cut
                self.cached_max_version = payload.max_version
                continue
            if isinstance(payload, RollbackCommand):
                env.process(self._handle_rollback(payload),
                            name=f"proxy-rollback:{self.address}")
                continue
            if isinstance(payload, ReplicaAck):
                if self.replication is not None:
                    self.replication.handle_ack(payload)
                continue
            request: BatchRequest = payload
            key = (request.session_id, request.batch_id)
            cached = self._replies.get(key)
            if cached is not None:
                # Duplicate of a served batch: answer from the memoized
                # reply without touching Redis again — unless the
                # original reply is still held pending replica acks, in
                # which case resending would leak an unreplicated batch.
                self.duplicate_batches += 1
                if (self.replication is None
                        or not self.replication.is_held(key)):
                    reply_to, reply = cached
                    self.cluster.net.send(self.address, reply_to, reply,
                                          size_ops=request.op_count)
                continue
            if key in self._inflight:
                self.duplicate_batches += 1
                continue
            # Inbound forwarding cost (read header, re-frame).
            yield cost.proxy_time(request.op_count, dpr=self.dpr)
            if self.ownership is not None and request.partition is not None:
                try:
                    # Ownership validation (§5.3): a stale lease bounces
                    # the batch instead of serving on dead ownership.
                    self.ownership.validate(request.partition)
                except StaleLeaseError:
                    self.not_owner_rejections += 1
                    bounce = BatchReply(
                        request.batch_id, request.session_id, self.address,
                        "not_owner", self.engine.world_line.current, 0,
                        request.op_count, None, env.now, None,
                        request.partition)
                    self.cluster.net.send(self.address, request.reply_to,
                                          bounce, size_ops=request.op_count)
                    continue
                self.ownership.renew(request.partition)
                if env.tracer is not None:
                    env.tracer.counter(
                        "elastic.partition_ops.%d" % request.partition,
                        request.op_count)
            if self.dpr:
                reply_or_none = self._dpr_gate(request)
                if reply_or_none is not None:
                    self.cluster.net.send(self.address, request.reply_to,
                                          reply_or_none,
                                          size_ops=request.op_count)
                    continue
            self._inflight.add(key)
            self.redis.queue.put((request, self._make_responder(request)))

    def _dpr_gate(self, request: BatchRequest) -> Optional[BatchReply]:
        """World-line + version gating before Redis sees the batch."""
        decision = self.engine.world_line.gate(request.world_line)
        if decision is not WorldLineDecision.EXECUTE:
            status = ("rolled_back"
                      if decision is WorldLineDecision.REJECT else "retry")
            return BatchReply(
                batch_id=request.batch_id,
                session_id=request.session_id,
                object_id=self.address,
                status=status,
                world_line=self.engine.world_line.current,
                op_count=request.op_count,
                cut=self.cached_cut,
                served_at=self.env.now,
            )
        return None

    def _make_responder(self, request: BatchRequest):
        def respond(_request):
            self._egress.put(request)
        return respond

    def _egress_loop(self):
        """Single-threaded outbound forwarding (the proxy, like Redis,
        is one thread — ingress and egress share it in spirit; the two
        loops never overlap service for the same batch)."""
        env = self.env
        cost = self.cluster.config.cost
        while True:
            request: BatchRequest = yield self._egress  # channel wait
            yield cost.proxy_time(request.op_count, dpr=self.dpr)
            version = 0
            world_line = 0
            if self.dpr:
                outcome = self.engine.execute(
                    ("batch", request.op_count, request.write_count),
                    session_id=request.session_id,
                    seqno=request.first_seqno + request.op_count - 1,
                    min_version=request.min_version,
                    deps=request.deps,
                )
                version = outcome.version
                world_line = outcome.world_line
                self._flush_autosealed()
            reply = BatchReply(
                batch_id=request.batch_id,
                session_id=request.session_id,
                object_id=self.address,
                status="ok",
                world_line=world_line,
                version=version,
                op_count=request.op_count,
                cut=self.cached_cut if self.dpr else None,
                served_at=env.now,
            )
            key = (request.session_id, request.batch_id)
            self._inflight.discard(key)
            self._replies[key] = (request.reply_to, reply)
            while len(self._replies) > REPLY_CACHE:
                self._replies.popitem(last=False)
            source = self.replication
            if source is not None:
                # Chain gating: the "ok" is held until every replica
                # acks the batch's log entry.
                source.hold_and_send(request, reply)
            else:
                self.cluster.net.send(self.address, request.reply_to,
                                      reply, size_ops=request.op_count)

    # -- Commit() via BGSAVE ----------------------------------------------------

    def _commit_loop(self):
        while True:
            yield self.checkpoint_interval
            if self._committing:
                continue  # a forced Commit() is still in flight
            yield from self._commit_once()

    def request_checkpoint(self) -> bool:
        """Run one out-of-band Commit() (transfer step 2, §5.3)."""
        if self._committing or not self.running:
            return False
        self.env.process(self._commit_once(),
                         name=f"forced-ckpt:{self.address}")
        return True

    def _commit_once(self):
        env = self.env
        self._committing = True
        try:
            if (self.cached_max_version or 0) > self.engine.version:
                self.engine.fast_forward(self.cached_max_version)
            self._flush_autosealed()
            descriptor = self.engine.seal_version()
            version = descriptor.token.version
            if env.tracer is not None:
                env.tracer.begin_span("worker.persist_lag",
                                      (self.address, version), env.now)
            self.cluster.net.send(self.address, "dpr-finder",
                                  SealReport(descriptor), size_ops=1)
            if self.replication is not None:
                self.replication.log_seal(version)
            # Exclusive latch: BGSAVE through the Redis command queue.
            saved = env.event(name=f"bgsave:{self.address}")
            self.redis.queue.put(("BGSAVE", lambda _r: saved.succeed()))
            yield saved
            if not self.engine.is_sealed(version):
                # A rollback landed while the BGSAVE latch was queued:
                # this version no longer exists on the new world-line,
                # so persisting (and reporting) it would resurrect
                # rolled-back state.
                if env.tracer is not None:
                    env.tracer.cancel_span("worker.persist_lag",
                                           (self.address, version))
                return
            # Background RDB write, then LASTSAVE would advance.
            yield self.device.write(self.engine.checkpoint_bytes(version))
            if not self.engine.is_sealed(version):
                # Rolled back mid-write: drop the stale checkpoint.
                if env.tracer is not None:
                    env.tracer.cancel_span("worker.persist_lag",
                                           (self.address, version))
                return
            self.engine.mark_persisted(version)
            if env.tracer is not None:
                env.tracer.end_span("worker.persist_lag",
                                    (self.address, version), env.now,
                                    worker=self.address)
            self.cluster.net.send(self.address, "dpr-finder",
                                  PersistReport(self.address, version),
                                  size_ops=1)
            if self.replication is not None:
                self.replication.log_persist(version)
        finally:
            self._committing = False

    def _flush_autosealed(self) -> None:
        """Fast-forward seals persist with the next RDB write; report
        them sealed now (synchronously durable via snapshot aliasing)."""
        for descriptor in self.engine.drain_sealed():
            self.cluster.net.send(self.address, "dpr-finder",
                                  SealReport(descriptor), size_ops=1)
            self.engine.mark_persisted(descriptor.token.version)
            self.cluster.net.send(
                self.address, "dpr-finder",
                PersistReport(self.address, descriptor.token.version),
                size_ops=1,
            )
            if self.replication is not None:
                self.replication.log_seal(descriptor.token.version)
                self.replication.log_persist(descriptor.token.version)

    # -- Restore() via restart ------------------------------------------------------

    def _handle_rollback(self, command: RollbackCommand):
        env = self.env
        cost = self.cluster.config.cost
        target = command.cut.version_of(self.address)
        if command.world_line > self.engine.world_line.current:
            restored = self.engine.restore(target,
                                           world_line=command.world_line)
            self.cached_cut = command.cut
            if self.replication is not None:
                # The proxy survives the rollback in place (no restart),
                # so the stream continues in-epoch: replicas mirror the
                # restore to the version the engine actually landed on.
                self.replication.log_rollback(command.world_line, restored)
            # Restore() restarts the Redis instance (§6): the restart
            # dwarfs THROW-style windows.
            yield cost.rollback_window * 2
            if env.tracer is not None:
                env.tracer.span("worker.rollback", env.now,
                                cost.rollback_window * 2,
                                worker=self.address,
                                world_line=command.world_line)
        self.cluster.net.send(self.address, "cluster-manager",
                              RollbackDone(self.address, command.world_line),
                              size_ops=1)


class DRedisCluster:
    """Assembled D-Redis / Redis / Redis+proxy deployment."""

    def __init__(self, config: Optional[DRedisConfig] = None, **overrides):
        if config is None:
            config = DRedisConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        self.config = config
        self.env = Environment(tracer=config.tracer)
        self._rng = make_rng(config.seed)
        if config.faults is not None and config.tracer is not None:
            config.faults.bind_tracer(config.tracer)
        self.net = Network(self.env, NetworkConfig(),
                           rng=spawn(self._rng, "net"),
                           faults=config.faults)
        self.stats = ClusterStats()
        self.metadata = MetadataStore(self.env, rng=spawn(self._rng, "meta"),
                                      faults=config.faults)
        self.finder = ApproximateDprFinder(table=self.metadata.version_table)

        self.redis_instances: List[_RedisInstance] = []
        self.proxies: List[_DRedisProxy] = []
        #: Set by :meth:`enable_elasticity`.
        self.elastic = None
        client_targets: List[str] = []
        self.client_targets = client_targets
        for shard in range(config.n_shards):
            redis = _RedisInstance(self.env, self, shard)
            self.redis_instances.append(redis)
            if config.mode is RedisMode.PLAIN:
                address = f"redis-{shard}"
                endpoint = self.net.register(address)
                self.env.process(self._plain_frontend(redis, endpoint),
                                 name=f"redis-fe:{shard}")
                client_targets.append(address)
            else:
                device = StorageDevice(self.env, config.storage,
                                       rng=spawn(self._rng, f"dev{shard}"))
                proxy = _DRedisProxy(self.env, self, shard, redis, device)
                self.proxies.append(proxy)
                client_targets.append(proxy.address)

        if config.mode is RedisMode.DPR:
            self.finder_service = FinderService(
                self.env, self.net, "dpr-finder", self.finder,
                self.metadata, client_targets,
            )
            self.manager = ClusterManager(
                self.env, self.net, "cluster-manager", self.finder,
                self.metadata, client_targets,
            )

        self.clients: List[ClientMachine] = []
        for index in range(config.n_client_machines):
            self.clients.append(ClientMachine(
                self.env, self.net, f"client-{index}",
                worker_addresses=client_targets,
                workload=config.workload,
                stats=self.stats,
                batch_size=config.batch_size,
                window=config.window,
                n_threads=config.client_threads,
                rng=spawn(self._rng, f"client{index}"),
            ))

        #: Set by :meth:`_attach_replication`.
        self.replication = None
        if config.replication_factor > 0:
            if config.mode is not RedisMode.DPR:
                raise ValueError("replication_factor needs DPR mode")
            self._attach_replication(config.replication_factor)

    def _attach_replication(self, factor: int):
        """Hang ``factor`` replicas off every DPR proxy.

        Replica engines are :class:`ModeledStore` copies constructed
        with the *proxy's* address as object id, so the replicated
        seal/persist history lines up with the primary's DPR row.
        Unlike D-FASTER, promotion never fires here — proxies are not
        heartbeat-monitored (failures take the cluster-wide §4.1 path
        via :meth:`schedule_failure`) — so the chains buy durable-prefix
        read scale-out and the reply-holding write path only.
        """
        from repro.cluster.replication import (
            ReplicaNode,
            ReplicationDirector,
        )
        config = self.config
        workload = config.workload
        director = ReplicationDirector(
            self.env, self.net, self.metadata, self.finder_service,
            "dpr-finder", "cluster-manager")
        for index, proxy in enumerate(self.proxies):
            replicas = []
            for copy in range(factor):
                engine = ModeledStore(
                    proxy.address,
                    effective_keys=workload.effective_shard_keys(
                        config.n_shards),
                )
                device = StorageDevice(
                    self.env, config.storage,
                    rng=spawn(self._rng, f"rdev{index}.{copy}"))
                replicas.append(ReplicaNode(
                    self.env, self.net,
                    f"replica:{proxy.address}:{copy}", proxy.address,
                    engine, device, config.cost, self.stats,
                    self.metadata, vcpus=config.replica_vcpus,
                    checkpoint_interval=config.checkpoint_interval,
                    rng=spawn(self._rng, f"replica{index}.{copy}")))
            director.attach_chain(proxy, replicas)
        for client in self.clients:
            director.register_client(client)
        self.replication = director

    def _plain_frontend(self, redis: _RedisInstance, endpoint):
        """PLAIN mode: the Redis instance reads its own socket."""
        while True:
            message = yield endpoint.inbox  # channel wait, no get() Event
            request: BatchRequest = message.payload

            def respond(_request, request=request, endpoint=endpoint):
                reply = BatchReply(
                    batch_id=request.batch_id,
                    session_id=request.session_id,
                    object_id=endpoint.address,
                    status="ok",
                    world_line=0,
                    version=0,
                    op_count=request.op_count,
                    served_at=self.env.now,
                )
                self.net.send(endpoint.address, request.reply_to, reply,
                              size_ops=request.op_count)

            redis.queue.put((request, respond))

    # -- running -------------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.05) -> ClusterStats:
        self.stats.warmup = warmup
        self.env.run(until=duration)
        return self.stats

    def schedule_failure(self, at_time: float) -> None:
        if self.config.mode is not RedisMode.DPR:
            raise RuntimeError("failures need DPR mode")
        self.manager.schedule_failure(at_time)

    # -- membership changes (§5.3) -----------------------------------------

    def add_shard(self) -> _DRedisProxy:
        """Grow the deployment by one shard VM (Redis + DPR proxy).

        DPR mode only: the newcomer registers with the finder (a new
        row in the DPR table) and clients may route to it.  Pair with
        ``elastic.scale_out(proxy)`` to hand it partitions.
        """
        if self.config.mode is not RedisMode.DPR:
            raise RuntimeError("add_shard needs DPR mode")
        config = self.config
        shard = len(self.redis_instances)
        redis = _RedisInstance(self.env, self, shard)
        self.redis_instances.append(redis)
        device = StorageDevice(self.env, config.storage,
                               rng=spawn(self._rng, f"dev{shard}"))
        proxy = _DRedisProxy(self.env, self, shard, redis, device)
        self.proxies.append(proxy)
        self.client_targets.append(proxy.address)
        self.finder.register_object(proxy.address)
        self.finder_service.workers.append(proxy.address)
        self.manager.workers.append(proxy.address)
        for client in self.clients:
            client.workers.append(proxy.address)
        return proxy

    def enable_elasticity(self, partition_count: int = 32,
                          lease_duration: float = 0.5):
        """Turn on §5.3 live rebalancing over the DPR proxies."""
        if self.config.mode is not RedisMode.DPR:
            raise RuntimeError("elasticity needs DPR mode")
        if self.elastic is not None:
            return self.elastic
        from repro.cluster.elastic import ElasticCoordinator
        self.elastic = ElasticCoordinator(
            self.env, self.metadata, self.proxies,
            partition_count=partition_count,
            lease_duration=lease_duration,
        )
        for client in self.clients:
            client.router = self.elastic
        if self.replication is not None:
            self.replication.elastic = self.elastic
        return self.elastic
