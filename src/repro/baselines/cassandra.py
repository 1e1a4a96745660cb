"""An Apache-Cassandra-like baseline (§7.6, Figure 19a).

The paper uses Cassandra (replication disabled, default YCSB driver) as
a third system supporting two recoverability levels via the commitlog
``sync`` option:

- ``periodic`` — mutations ack before the commitlog fsyncs (eventual
  recoverability);
- ``group``    — mutations wait for the next group fsync window
  (synchronous recoverability), which costs both latency (half a window
  on average) and throughput (commitlog contention).

The model reproduces the memtable/commitlog write path structure: a
per-node thread pool with an LSM-flavoured per-op cost (which includes
the heavyweight driver/coordination overhead that keeps real
Cassandra's YCSB numbers in the hundreds of thousands of ops/s), plus
the commitlog behaviour that separates the two durability levels.
"""

from __future__ import annotations

import enum
from typing import List

from repro.cluster.client import ClientMachine
from repro.cluster.messages import BatchReply, BatchRequest
from repro.cluster.stats import ClusterStats
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.queues import Queue
from repro.sim.rand import make_rng, spawn
from repro.workloads.ycsb import WorkloadSpec


class CommitLogMode(enum.Enum):
    PERIODIC = "periodic"  # eventual recoverability
    GROUP = "group"        # synchronous recoverability


class CassandraNode:
    """One Cassandra node: a thread pool over a work queue, plus the
    group-commit fsync cycle when the commitlog is in ``group`` mode."""

    THREADS = 16
    #: Per-op service cost: memtable insert + commitlog append + the
    #: coordination/driver overhead that dominates real deployments.
    OP_COST = 150e-6
    #: Group-commit fsync window (commitlog_sync_group_window).
    GROUP_WINDOW = 10e-3
    #: Extra per-op cost under group sync (commitlog contention).
    GROUP_OP_PENALTY = 2.0

    def __init__(self, env: Environment, net: Network, address: str,
                 commitlog: CommitLogMode):
        self.env = env
        self.net = net
        self.address = address
        self.commitlog = commitlog
        self.endpoint = net.register(address)
        self.work = Queue(env, name=f"cass-q:{address}")
        #: Batches waiting on the next group fsync: (reply, reply_to).
        self._awaiting_fsync: List = []
        self.ops_served = 0
        env.process(self._dispatch(), name=f"cass-rx:{address}")
        for thread in range(self.THREADS):
            env.process(self._thread(), name=f"cass:{address}/{thread}")
        if commitlog is CommitLogMode.GROUP:
            env.process(self._fsync_cycle(), name=f"cass-fsync:{address}")

    def _dispatch(self):
        while True:
            message = yield self.endpoint.inbox  # channel wait, no get() Event
            self.work.put(message.payload)

    def _thread(self):
        env = self.env
        group = self.commitlog is CommitLogMode.GROUP
        per_op = self.OP_COST
        if group:
            per_op *= self.GROUP_OP_PENALTY
        while True:
            request: BatchRequest = yield self.work  # channel wait
            yield request.op_count * per_op
            self.ops_served += request.op_count
            reply = BatchReply(
                batch_id=request.batch_id,
                session_id=request.session_id,
                object_id=self.address,
                status="ok",
                world_line=0,
                version=0,
                op_count=request.op_count,
                served_at=env.now,
            )
            if group:
                # Ack only after the commitlog group fsync.
                self._awaiting_fsync.append((reply, request.reply_to))
            else:
                self.net.send(self.address, request.reply_to, reply,
                              size_ops=request.op_count)

    def _fsync_cycle(self):
        while True:
            yield self.GROUP_WINDOW
            pending, self._awaiting_fsync = self._awaiting_fsync, []
            for reply, reply_to in pending:
                self.net.send(self.address, reply_to, reply,
                              size_ops=reply.op_count)


class CassandraCluster:
    """An n-node Cassandra-like cluster fed by the standard clients."""

    N_NODES = 8
    N_CLIENT_MACHINES = 8
    CLIENT_THREADS = 2
    BATCH_SIZE = 256
    SEED = 42

    def __init__(self, commitlog: CommitLogMode, workload: WorkloadSpec):
        self.commitlog = commitlog
        self.env = Environment()
        self._rng = make_rng(self.SEED)
        self.net = Network(self.env, rng=spawn(self._rng, "net"))
        self.stats = ClusterStats()
        addresses = [f"cassandra-{i}" for i in range(self.N_NODES)]
        self.nodes = [CassandraNode(self.env, self.net, address, commitlog)
                      for address in addresses]
        self.clients = [
            ClientMachine(
                self.env, self.net, f"client-{i}",
                worker_addresses=addresses,
                workload=workload,
                stats=self.stats,
                batch_size=self.BATCH_SIZE,
                n_threads=self.CLIENT_THREADS,
                rng=spawn(self._rng, f"client{i}"),
            )
            for i in range(self.N_CLIENT_MACHINES)
        ]

    def run(self, duration: float, warmup: float = 0.05) -> ClusterStats:
        self.stats.warmup = warmup
        self.env.run(until=duration)
        return self.stats
