"""The cluster shell D-FASTER and D-Redis deployments share.

A deployment is a set of gate hosts (workers or proxies) plus the same
surroundings: simulated environment, seeded RNG stream, network,
metadata store, stats, DPR finder + finder service, cluster manager,
closed-loop client machines, optional replica chains and optional
elasticity.  :class:`ClusterShell` owns all of that once;
:class:`~repro.cluster.dfaster.DFasterCluster` and
:class:`~repro.cluster.dredis.DRedisCluster` keep only how their hosts
are built and — through :meth:`ClusterShell._assemble` — the *order*
the pieces are built in, because construction order is kernel sequence
numbers and RNG draws, i.e. output bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional

from repro.cluster.client import ClientMachine
from repro.cluster.costmodel import CostModel
from repro.cluster.metadata import MetadataStore
from repro.cluster.services import ClusterManager, FinderService
from repro.cluster.stats import ClusterStats
from repro.core.finder import ApproximateDprFinder
from repro.sim.faults import FaultPlan
from repro.sim.kernel import Environment
from repro.sim.network import Network, NetworkConfig
from repro.sim.rand import make_rng, spawn
from repro.sim.storage import StorageDevice, StorageKind
from repro.workloads.ycsb import WorkloadSpec, YCSB_A

FINDER_ADDRESS = "dpr-finder"
MANAGER_ADDRESS = "cluster-manager"


@dataclass
class ClusterConfig:
    """Knobs every deployment has (§7.1); subclasses add their own."""

    workload: WorkloadSpec = field(default_factory=lambda: YCSB_A)
    batch_size: int = 1024
    #: Outstanding ops per client thread; defaults to the paper's 16*b.
    window: Optional[int] = None
    n_client_machines: int = 8
    client_threads: int = 4
    checkpoint_interval: float = 0.1
    checkpoints_enabled: bool = True
    storage: StorageKind = StorageKind.LOCAL_SSD
    seed: int = 42
    cost: CostModel = field(default_factory=CostModel)
    #: Chaos testing: a seeded fault-injection plan applied to the
    #: network and the metadata store (None = fault-free).
    faults: Optional[FaultPlan] = None
    #: Observability: a :class:`repro.obs.Tracer` shared by every layer
    #: of this cluster (None = tracing off, zero recording overhead).
    tracer: Optional[object] = None
    #: Replicas per host (primary/replica chains): 0 disables
    #: replication entirely; N > 0 attaches N
    #: :class:`~repro.cluster.replication.ReplicaNode` copies to every
    #: host, enabling recoverable-prefix reads (and, for heartbeat-
    #: monitored D-FASTER workers, promotion-instead-of-rollback).
    replication_factor: int = 0
    #: Server threads per replica (read serving is their only duty
    #: until a promotion, so they need far fewer than primaries).
    replica_vcpus: int = 4


class ClusterShell:
    """Everything around the hosts of one experiment configuration."""

    #: The config dataclass ``**overrides`` are applied to.
    CONFIG = ClusterConfig

    def __init__(self, config: Optional[ClusterConfig] = None, **overrides):
        if config is None:
            config = self.CONFIG(**overrides)
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
        self.finder = self._finder_class()(table=self.metadata.version_table)
        #: The gate hosts (D-FASTER workers / D-Redis proxies).
        self.hosts: List = []
        #: Addresses clients send batches to, one per shard.
        self.client_targets: List[str] = []
        self.clients: List[ClientMachine] = []
        #: Set by :meth:`enable_elasticity`.
        self.elastic = None
        #: Set by :meth:`_attach_replication` (replication_factor > 0).
        self.replication = None
        self._assemble()
        if config.replication_factor > 0:
            self._attach_replication(config.replication_factor)

    # -- subclass hooks ------------------------------------------------------

    def _finder_class(self):
        return ApproximateDprFinder

    def _assemble(self) -> None:
        """Build hosts, services and clients, in the deployment's order."""
        raise NotImplementedError

    def _build_engine(self, address: str):
        """A fresh shard engine with ``address`` as its object id."""
        raise NotImplementedError

    def _require(self, feature: str) -> None:
        """Raise if this deployment's mode cannot do ``feature``."""

    # -- building blocks for _assemble ---------------------------------------

    def _device(self, label: str) -> StorageDevice:
        return StorageDevice(self.env, self.config.storage,
                             rng=spawn(self._rng, label))

    def _build_services(self) -> None:
        """The finder service and cluster manager over ``client_targets``."""
        self.finder_service = FinderService(
            self.env, self.net, FINDER_ADDRESS, self.finder, self.metadata,
            self.client_targets)
        self.manager = ClusterManager(
            self.env, self.net, MANAGER_ADDRESS, self.finder, self.metadata,
            self.client_targets)

    def _build_clients(self) -> None:
        config = self.config
        for index in range(config.n_client_machines):
            self.clients.append(ClientMachine(
                self.env, self.net, f"client-{index}",
                worker_addresses=self.client_targets,
                workload=config.workload,
                stats=self.stats,
                batch_size=config.batch_size,
                window=config.window,
                n_threads=config.client_threads,
                rng=spawn(self._rng, f"client{index}"),
                recovery_pause=config.cost.client_recovery_pause,
            ))

    def _attach_replication(self, factor: int) -> None:
        """Attach a ``factor``-deep replica chain to every host.

        Replica engines carry the *primary's* object id (promotion
        keeps the shard's DPR identity, and the replicated seal/persist
        history lines up with the primary's DPR row), while their
        network addresses are ``replica:<primary>:<i>``.  The director
        is handed to the cluster manager, whose crash handler tries
        promotion before the §4.1 rollback — for hosts it monitors:
        D-Redis proxies send no heartbeats, so their chains buy
        durable-prefix read scale-out and the reply-holding write path
        only.
        """
        from repro.cluster.replication import ReplicaNode, ReplicationDirector
        config = self.config
        director = ReplicationDirector(
            self.env, self.net, self.metadata, self.finder_service,
            FINDER_ADDRESS, MANAGER_ADDRESS)
        for index, host in enumerate(self.hosts):
            replicas = []
            for copy in range(factor):
                replicas.append(ReplicaNode(
                    self.env, self.net,
                    f"replica:{host.address}:{copy}", host.address,
                    engine=self._build_engine(host.address),
                    device=self._device(f"rdev{index}.{copy}"),
                    cost=config.cost,
                    stats=self.stats,
                    metadata=self.metadata,
                    vcpus=config.replica_vcpus,
                    checkpoint_interval=config.checkpoint_interval,
                    rng=spawn(self._rng, f"replica{index}.{copy}"),
                ))
            director.attach_chain(host, replicas)
        for client in self.clients:
            director.register_client(client)
        self.manager.replication = director
        self.replication = director

    def _join(self, host) -> None:
        """A new host joins: adding it is adding a row to the DPR table
        (§5.3); services and clients may reach it from here on."""
        address = host.address
        self.hosts.append(host)
        self.client_targets.append(address)
        self.finder.register_object(address)
        self.finder_service.workers.append(address)
        self.manager.workers.append(address)
        for client in self.clients:
            client.workers.append(address)

    # -- running -------------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.05) -> ClusterStats:
        """Run the experiment; returns stats with the warmup applied."""
        self.stats.warmup = warmup
        self.env.run(until=duration)
        return self.stats

    def schedule_failure(self, at_time: float) -> None:
        """The paper's §7.4 method: a world-line bump without a real
        process crash."""
        self._require("failures")
        self.manager.schedule_failure(at_time)

    def enable_elasticity(self, partition_count: int = 32,
                          lease_duration: float = 0.5):
        """Turn on §5.3 live rebalancing for this cluster.

        Builds an :class:`~repro.cluster.elastic.ElasticCoordinator`
        over the current hosts (attaching lease views and starting
        metadata-validated renewal) and switches every fleet client to
        partition routing through it.  Call before :meth:`run`.
        """
        from repro.cluster.elastic import ElasticCoordinator
        self._require("elasticity")
        if self.elastic is not None:
            return self.elastic
        self.elastic = ElasticCoordinator(
            self.env, self.metadata, self.hosts,
            partition_count=partition_count,
            lease_duration=lease_duration,
        )
        for client in self.clients:
            client.router = self.elastic
        if self.replication is not None:
            # Promotions must transfer the dead owner's leases.
            self.replication.elastic = self.elastic
        return self.elastic
