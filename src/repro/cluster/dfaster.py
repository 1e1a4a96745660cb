"""The assembled D-FASTER cluster (Figure 6) and its co-located mode.

``DFasterCluster`` wires the simulated testbed together: network,
metadata store, DPR finder service, cluster manager, one worker (with
storage device and shard engine) per VM, and either dedicated client
machines (§7.2) or co-located client threads pinned to worker vCPUs
(§7.3, where local operations run at memory speed and only remote keys
cross the network).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.cluster.client import BatchSession, ClientMachine
from repro.cluster.costmodel import CostModel
from repro.cluster.messages import BatchIds, BatchReply, BatchRequest
from repro.cluster.metadata import MetadataStore
from repro.cluster.modeled import ModeledStore
from repro.cluster.services import ClusterManager, FinderService
from repro.cluster.stats import ClusterStats
from repro.cluster.worker import DFasterWorker
from repro.core.finder import (
    ApproximateDprFinder,
    ExactDprFinder,
    HybridDprFinder,
)
from repro.core.state_object import WorldLineMismatch
from repro.core.worldline import WorldLineDecision
from repro.faster.state_object import FasterStateObject
from repro.sim.faults import FaultPlan
from repro.sim.kernel import Environment
from repro.sim.network import Network, NetworkConfig
from repro.sim.rand import make_rng, spawn
from repro.sim.storage import StorageDevice, StorageKind
from repro.workloads.ycsb import WorkloadSpec, YCSB_A


@dataclass
class DFasterConfig:
    """Knobs matching the paper's experimental setup (§7.1)."""

    n_workers: int = 8
    vcpus: int = 16
    workload: WorkloadSpec = field(default_factory=lambda: YCSB_A)
    batch_size: int = 1024
    #: Outstanding ops per client thread; defaults to the paper's 16*b.
    window: Optional[int] = None
    n_client_machines: int = 8
    client_threads: int = 4
    checkpoint_interval: float = 0.1
    storage: StorageKind = StorageKind.LOCAL_SSD
    checkpoints_enabled: bool = True
    dpr_enabled: bool = True
    finder: str = "approximate"  # "approximate" | "exact" | "hybrid"
    finder_tick: float = 10e-3
    #: Co-located mode (§7.3): clients run on worker vCPUs.
    colocated: bool = False
    #: Fraction of co-located operations hitting the local shard.
    colocation_local_fraction: float = 1.0
    #: "modeled" runs the counters-only engine (performance studies);
    #: "faster" runs real FasterKV shards (functional studies).
    engine: str = "modeled"
    #: Replicas per worker (primary/replica chains): 0 disables
    #: replication entirely; N > 0 attaches N ReplicaNodes to every
    #: worker, enabling recoverable-prefix reads and promotion-
    #: instead-of-rollback on owner crashes.
    replication_factor: int = 0
    #: Server threads per replica (read serving is their only duty
    #: until a promotion, so they need far fewer than primaries).
    replica_vcpus: int = 4
    #: Keyspace for functional runs (modeled runs use workload.keyspace).
    functional_keyspace: int = 4096
    seed: int = 42
    cost: CostModel = field(default_factory=CostModel)
    #: Chaos testing: a seeded fault-injection plan applied to the
    #: network and the metadata store (None = fault-free).
    faults: Optional[FaultPlan] = None
    #: Observability: a :class:`repro.obs.Tracer` shared by every layer
    #: of this cluster (None = tracing off, zero recording overhead).
    tracer: Optional[object] = None


class DFasterCluster:
    """Everything needed to run one experiment configuration."""

    FINDERS = {
        "approximate": ApproximateDprFinder,
        "exact": ExactDprFinder,
        "hybrid": HybridDprFinder,
    }

    def __init__(self, config: Optional[DFasterConfig] = None, **overrides):
        if config is None:
            config = DFasterConfig(**overrides)
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
        self.metadata = MetadataStore(self.env, rng=spawn(self._rng, "meta"),
                                      faults=config.faults)
        self.stats = ClusterStats()

        finder_cls = self.FINDERS[config.finder]
        self.finder = finder_cls(table=self.metadata.version_table)

        worker_addresses = [f"worker-{i}" for i in range(config.n_workers)]
        self.finder_service = FinderService(
            self.env, self.net, "dpr-finder", self.finder, self.metadata,
            worker_addresses, tick_interval=config.finder_tick,
        )
        self.manager = ClusterManager(
            self.env, self.net, "cluster-manager", self.finder,
            self.metadata, worker_addresses,
        )

        self.workers: List[DFasterWorker] = []
        for index, address in enumerate(worker_addresses):
            engine = self._build_engine(address)
            device = StorageDevice(self.env, config.storage,
                                   rng=spawn(self._rng, f"dev{index}"))
            worker = DFasterWorker(
                self.env, self.net, address,
                engine=engine,
                device=device,
                cost=config.cost,
                stats=self.stats,
                finder_address="dpr-finder",
                manager_address="cluster-manager",
                vcpus=config.vcpus,
                checkpoint_interval=config.checkpoint_interval,
                checkpoints_enabled=config.checkpoints_enabled,
                dpr_enabled=config.dpr_enabled,
                rng=spawn(self._rng, f"worker{index}"),
                # Co-located mode routes the inbox itself (the driver
                # must see replies addressed to its sessions).
                external_dispatch=config.colocated,
            )
            self.workers.append(worker)
            self.manager.worker_registry[address] = worker

        #: Set by :meth:`enable_elasticity`.
        self.elastic = None
        #: Set by :meth:`_attach_replication` (replication_factor > 0).
        self.replication = None
        self.clients: List[ClientMachine] = []
        self._colocated: List["_ColocatedDriver"] = []
        if config.replication_factor > 0 and config.colocated:
            raise ValueError(
                "replication is not supported in co-located mode: "
                "co-located drivers serve replies without the reply-"
                "holding hook replication requires")
        if config.colocated:
            for worker in self.workers:
                driver = _ColocatedDriver(
                    self, worker,
                    local_fraction=config.colocation_local_fraction,
                )
                self._colocated.append(driver)
        else:
            for index in range(config.n_client_machines):
                client = ClientMachine(
                    self.env, self.net, f"client-{index}",
                    worker_addresses=worker_addresses,
                    workload=config.workload,
                    stats=self.stats,
                    batch_size=config.batch_size,
                    window=config.window,
                    n_threads=config.client_threads,
                    rng=spawn(self._rng, f"client{index}"),
                    recovery_pause=config.cost.client_recovery_pause,
                )
                self.clients.append(client)
        if config.replication_factor > 0:
            self._attach_replication(config.replication_factor)

    def _attach_replication(self, factor: int) -> None:
        """Attach a ``factor``-deep replica chain to every worker.

        Replica engines carry the *primary's* object id (promotion
        keeps the shard's DPR identity), while their network addresses
        are ``replica:<primary>:<i>``.  The director is handed to the
        cluster manager, whose crash handler tries promotion before
        the §4.1 rollback.
        """
        from repro.cluster.replication import ReplicaNode, ReplicationDirector
        config = self.config
        director = ReplicationDirector(
            self.env, self.net, self.metadata, self.finder_service,
            "dpr-finder", "cluster-manager")
        for index, worker in enumerate(self.workers):
            replicas = []
            for copy in range(factor):
                address = f"replica:{worker.address}:{copy}"
                node = ReplicaNode(
                    self.env, self.net, address, worker.address,
                    engine=self._build_engine(worker.address),
                    device=StorageDevice(
                        self.env, config.storage,
                        rng=spawn(self._rng, f"rdev{index}.{copy}")),
                    cost=config.cost,
                    stats=self.stats,
                    metadata=self.metadata,
                    vcpus=config.replica_vcpus,
                    checkpoint_interval=config.checkpoint_interval,
                    rng=spawn(self._rng, f"replica{index}.{copy}"),
                )
                replicas.append(node)
            director.attach_chain(worker, replicas)
        for client in self.clients:
            director.register_client(client)
        self.manager.replication = director
        self.replication = director

    def _build_engine(self, address: str):
        config = self.config
        if config.engine == "modeled":
            effective = config.workload.effective_shard_keys(config.n_workers)
            return ModeledStore(address, effective_keys=effective)
        if config.engine == "faster":
            return FasterStateObject(address, bucket_count=1 << 12)
        raise ValueError(f"unknown engine {config.engine!r}")

    # -- running -----------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.05) -> ClusterStats:
        """Run the experiment; returns stats with the warmup applied."""
        self.stats.warmup = warmup
        self.env.run(until=duration)
        return self.stats

    def throughput_mops(self, duration: float,
                        warmup: float = 0.05) -> float:
        stats = self.run(duration, warmup)
        return stats.throughput(start=warmup, end=duration,
                                duration=duration - warmup) / 1e6

    # -- failure injection (§7.4) ----------------------------------------------

    def schedule_failure(self, at_time: float) -> None:
        """The paper's §7.4 method: a world-line bump without a real
        process crash."""
        self.manager.schedule_failure(at_time)

    def schedule_crash(self, worker_index: int, at_time: float) -> None:
        """A *real* crash: the worker process dies, heartbeats stop, the
        cluster manager detects the silence, restarts the worker from
        durable state in bounded time, and rolls survivors back."""
        worker = self.workers[worker_index]

        def fire():
            yield max(0.0, at_time - self.env.now)
            worker.crash()

        self.env.process(fire(), name=f"crash@{at_time}")

    # -- membership changes (§5.3) ------------------------------------------------

    def enable_elasticity(self, partition_count: int = 32,
                          lease_duration: float = 0.5):
        """Turn on §5.3 live rebalancing for this cluster.

        Builds an :class:`~repro.cluster.elastic.ElasticCoordinator`
        over the current workers (attaching lease views and starting
        metadata-validated renewal) and switches every fleet client to
        partition routing through it.  Call before :meth:`run`.
        """
        from repro.cluster.elastic import ElasticCoordinator
        if self.elastic is not None:
            return self.elastic
        if self.config.colocated:
            raise ValueError(
                "elasticity is not supported in co-located mode: "
                "co-located sessions bypass partition routing")
        self.elastic = ElasticCoordinator(
            self.env, self.metadata, self.workers,
            partition_count=partition_count,
            lease_duration=lease_duration,
        )
        for client in self.clients:
            client.router = self.elastic
        if self.replication is not None:
            # Promotions must transfer the dead owner's leases.
            self.replication.elastic = self.elastic
        return self.elastic

    def add_worker(self) -> DFasterWorker:
        """Grow the cluster: adding a worker is adding a row to the DPR
        table (§5.3).  The newcomer fast-forwards to Vmax via the §3.4
        laggard rule, so the cut keeps advancing."""
        config = self.config
        index = len(self.workers)
        address = f"worker-{index}"
        engine = self._build_engine(address)
        device = StorageDevice(self.env, config.storage,
                               rng=spawn(self._rng, f"dev{index}"))
        worker = DFasterWorker(
            self.env, self.net, address,
            engine=engine, device=device, cost=config.cost,
            stats=self.stats,
            finder_address="dpr-finder", manager_address="cluster-manager",
            vcpus=config.vcpus,
            checkpoint_interval=config.checkpoint_interval,
            checkpoints_enabled=config.checkpoints_enabled,
            dpr_enabled=config.dpr_enabled,
            rng=spawn(self._rng, f"worker{index}"),
        )
        self.workers.append(worker)
        self.manager.worker_registry[address] = worker
        self.manager.workers.append(address)
        self.finder.register_object(address)
        self.finder_service.workers.append(address)
        for client in self.clients:
            client.workers.append(address)
        return worker

    def remove_worker(self, worker_index: int) -> None:
        """Shrink the cluster: an (empty) worker leaves by dropping its
        row from the DPR table (§5.3); clients stop routing to it."""
        worker = self.workers[worker_index]
        worker.stop()
        self.net.set_up(worker.address, False)
        self.finder.remove_object(worker.address)
        # Full decommission: membership, monitoring, restart registry,
        # and any in-flight recovery waiting on the departed address.
        self.manager.decommission(worker.address)
        self.finder_service.workers.remove(worker.address)
        for client in self.clients:
            if worker.address in client.workers:
                client.workers.remove(worker.address)
            # Cached partition mappings pointing at the departed worker
            # would bounce forever; drop them so routing re-resolves.
            stale = [partition for partition, owner
                     in client._owner_cache.items()
                     if owner == worker.address]
            for partition in stale:
                del client._owner_cache[partition]


class _ColocatedDriver:
    """Client threads pinned to a worker's vCPUs (§7.3).

    Each vCPU runs one loop that *serves remote requests first* and
    spends spare cycles driving its own session: local chunks execute
    directly against the shard at memory speed; remote batches go over
    the network with the usual windowing.
    """

    LOCAL_CHUNK = 64
    POLL = 30e-6

    def __init__(self, cluster: DFasterCluster, worker: DFasterWorker,
                 local_fraction: float):
        self.cluster = cluster
        self.worker = worker
        self.local_fraction = local_fraction
        config = cluster.config
        self.batch_size = config.batch_size
        self.window = (config.window if config.window is not None
                       else 16 * config.batch_size)
        self.sessions: Dict[str, BatchSession] = {}
        self._batch_ids = BatchIds()
        self._remote_targets = [
            w.address for w in cluster.workers if w is not worker
        ]
        for thread in range(config.vcpus):
            session_id = f"{worker.address}/co{thread}"
            session = BatchSession(session_id, cluster.stats,
                                   ids=self._batch_ids,
                                   tracer=cluster.env.tracer)
            self.sessions[session_id] = session
            cluster.env.process(
                self._loop(session, spawn(cluster._rng, session_id)),
                name=f"colocated:{session_id}",
            )
        # Route replies for co-located sessions out of the worker inbox.
        cluster.env.process(self._reply_router(),
                            name=f"co-rx:{worker.address}")

    def _reply_router(self):
        """Steal BatchReply messages addressed to this worker's sessions.

        The worker's dispatcher only routes requests/control; replies to
        co-located clients land in the same endpoint inbox, so we wrap
        the dispatcher's queue with a filter.
        """
        worker = self.worker
        inbox = worker.endpoint.inbox
        while True:
            message = yield inbox  # channel wait, no get() Event
            payload = message.payload
            if isinstance(payload, BatchReply):
                session = self.sessions.get(payload.session_id)
                if session is not None:
                    self._absorb_reply(session, payload)
            elif isinstance(payload, BatchRequest):
                if worker.admit(payload):
                    worker.work.put(payload)
            else:
                self._forward_control(payload)

    def _forward_control(self, payload) -> None:
        """Mirror the worker dispatcher for control messages."""
        from repro.cluster.messages import CutBroadcast, RollbackCommand
        worker = self.worker
        if isinstance(payload, CutBroadcast):
            worker.cached_cut = payload.cut
            worker.cached_max_version = payload.max_version
        elif isinstance(payload, RollbackCommand):
            self.cluster.env.process(
                worker._handle_rollback(payload),
                name=f"rollback:{worker.address}",
            )

    def _absorb_reply(self, session: BatchSession, reply: BatchReply) -> None:
        now = self.cluster.env.now
        if reply.status == "rolled_back":
            session.handle_rollback(reply.world_line, reply.cut, now,
                                    self.cluster.config.cost.client_recovery_pause)
        elif reply.status == "retry":
            session.session.drop(reply.batch_id)
        else:
            session.complete(reply, now)

    def _chunk_probability(self) -> float:
        """Coin weight so the *op-level* local fraction equals ``p``.

        Local work proceeds in chunks of :data:`LOCAL_CHUNK` ops while
        remote batches carry ``batch_size`` ops, so the per-chunk coin
        must be reweighted.
        """
        p = self.local_fraction
        if p >= 1.0 or not self._remote_targets:
            return 1.0
        if p <= 0.0:
            return 0.0
        local_rate = p / self.LOCAL_CHUNK
        remote_rate = (1.0 - p) / self.batch_size
        return local_rate / (local_rate + remote_rate)

    def _loop(self, session: BatchSession, rng: random.Random):
        cluster, worker = self.cluster, self.worker
        env = cluster.env
        cost = cluster.config.cost
        chunk_p = self._chunk_probability()
        # The session is sequential: once the next chunk is drawn it
        # must issue before anything later — a remote chunk blocked on
        # the window stalls client progress (the thread keeps serving
        # remote requests meanwhile), which is why small batches crater
        # at high remote fractions in Figure 15.
        next_is_local: Optional[bool] = None
        dpr = session.session
        while True:
            if env.now < dpr.paused_until:
                yield dpr.paused_until - env.now
                continue
            # Serve remote requests first ("spare cycles" rule, §7.3).
            item = worker.work.try_get()
            if item is not None:
                write_fraction = (item.write_count / item.op_count
                                  if item.op_count else 0.0)
                service = cost.server_batch_time(
                    item.op_count, write_fraction,
                    worker._rcu_probability(), worker._slowdown(),
                    dpr=worker.dpr_enabled,
                )
                yield service
                if env.tracer is not None:
                    env.tracer.span("worker.batch_service", env.now,
                                    service, worker=worker.address)
                reply = worker._execute(item)
                worker.batches_served += 1
                cluster.net.send(worker.address, item.reply_to, reply,
                                 size_ops=item.op_count)
                continue
            if next_is_local is None:
                next_is_local = rng.random() < chunk_p
            if next_is_local:
                yield from self._local_chunk(session, rng)
                next_is_local = None
            else:
                if dpr.outstanding_ops + self.batch_size > self.window:
                    yield self.POLL
                    continue
                # Client-side cost of the remote path competes with
                # serving on the same vCPU.
                yield cost.colocated_remote_send(self.batch_size)
                self._issue_remote(session, rng)
                next_is_local = None

    def _local_chunk(self, session: BatchSession, rng: random.Random):
        """Execute a chunk of local operations at memory speed."""
        cluster, worker = self.cluster, self.worker
        env = cluster.env
        cost = cluster.config.cost
        workload = cluster.config.workload
        chunk = self.LOCAL_CHUNK
        write_count = workload.batch_write_count(chunk, rng)
        service = cost.colocated_local_time(
            chunk, write_count / chunk, worker._rcu_probability(),
            worker._slowdown(),
        )
        yield service
        request = session.new_batch(worker.address, chunk, write_count,
                                    env.now, worker.address)
        try:
            outcome = worker.engine.execute(
                ("batch", chunk, write_count),
                session_id=session.session_id,
                seqno=request.first_seqno + chunk - 1,
                min_version=request.min_version if worker.dpr_enabled else 0,
                deps=request.deps if worker.dpr_enabled else (),
                world_line=request.world_line if worker.dpr_enabled else None,
            )
        except WorldLineMismatch as mismatch:
            if mismatch.decision is WorldLineDecision.REJECT:
                session.handle_rollback(worker.engine.world_line.current,
                                        worker.cached_cut, env.now,
                                        cost.client_recovery_pause)
            else:
                session.session.drop(request.batch_id)
                session.session.paused_until = env.now + 2e-3
            return
        worker._enqueue_autosealed()
        reply = BatchReply(
            batch_id=request.batch_id,
            session_id=session.session_id,
            object_id=worker.engine.object_id,
            status="ok",
            world_line=worker.engine.world_line.current,
            version=outcome.version,
            op_count=chunk,
            cut=worker.cached_cut if worker.dpr_enabled else None,
            served_at=env.now,
        )
        session.complete(reply, env.now)

    def _issue_remote(self, session: BatchSession,
                      rng: random.Random) -> None:
        """Send one remote batch (window already checked by the caller)."""
        cluster, worker = self.cluster, self.worker
        target = self._remote_targets[rng.randrange(len(self._remote_targets))]
        workload = cluster.config.workload
        write_count = workload.batch_write_count(self.batch_size, rng)
        request = session.new_batch(target, self.batch_size, write_count,
                                    cluster.env.now, worker.address)
        cluster.net.send(worker.address, target, request,
                         size_ops=self.batch_size)
