"""The distributed layer: D-FASTER and D-Redis on the simulated testbed.

Composition (mirrors Figure 6):

- :mod:`repro.cluster.metadata` — the Azure-SQL stand-in holding the
  DPR table, ownership mapping and cluster membership;
- :mod:`repro.cluster.ownership` — virtual partitions and the
  lease-guarded ownership view servers validate against (§5.3);
- :mod:`repro.cluster.elastic` — the checkpoint-aligned ownership
  transfer itself (``ElasticCoordinator.migrate``), scale-out and
  scale-in, and the single-batch ``PartitionedClient``;
- :mod:`repro.cluster.costmodel` — the calibrated CPU/IO cost model
  that turns protocol events into simulated time;
- :mod:`repro.cluster.modeled` — a counters-only StateObject for
  large-scale performance runs (full DPR logic, no data payloads);
- :mod:`repro.cluster.worker` — ``GateHost``, what every networked
  host of the one DPR server gate (``core.libdpr.DprServer``) shares,
  and the D-FASTER worker: server threads, checkpoint loop, flusher,
  crash/restart;
- :mod:`repro.cluster.client` — dedicated client machines with
  windowed, batched sessions;
- :mod:`repro.cluster.services` — the DPR-finder service and the
  cluster manager (failure detection, world-line bumps, and
  promotion-instead-of-rollback when a replica chain qualifies);
- :mod:`repro.cluster.replication` — primary/replica chains: log
  shipping with held client replies, recoverable-prefix read serving,
  and the promotion mechanics;
- :mod:`repro.cluster.shell` — the cluster shell both deployments
  share (config base, wiring, replica chains, elasticity, failures);
- :mod:`repro.cluster.dfaster` — the assembled D-FASTER cluster and its
  co-located client driver;
- :mod:`repro.cluster.dredis` — the assembled D-Redis deployment
  (proxy + unmodified Redis per shard) plus the plain-Redis and
  pass-through-proxy baselines of §7.5.
"""

from repro.cluster.costmodel import CostModel
from repro.cluster.dfaster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.cluster.elastic import ElasticCoordinator, PartitionedClient
from repro.cluster.client import ReplicaReadClient
from repro.cluster.metadata import MetadataStore
from repro.cluster.modeled import ModeledStore
from repro.cluster.replication import (
    ReplicaNode,
    ReplicationDirector,
    ReplicationSource,
)

__all__ = [
    "CostModel",
    "DFasterCluster",
    "DFasterConfig",
    "DRedisCluster",
    "DRedisConfig",
    "ElasticCoordinator",
    "MetadataStore",
    "ModeledStore",
    "PartitionedClient",
    "RedisMode",
    "ReplicaNode",
    "ReplicaReadClient",
    "ReplicationDirector",
    "ReplicationSource",
]
