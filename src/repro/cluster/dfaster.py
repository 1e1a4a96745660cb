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
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.client import BatchSession
from repro.cluster.messages import BatchIds, BatchReply
from repro.cluster.modeled import ModeledStore
from repro.cluster.shell import (
    FINDER_ADDRESS,
    MANAGER_ADDRESS,
    ClusterConfig,
    ClusterShell,
)
from repro.cluster.worker import DFasterWorker
from repro.core.finder import (
    ApproximateDprFinder,
    ExactDprFinder,
    HybridDprFinder,
)
from repro.core.session import RETRY_DELAY
from repro.faster.state_object import FasterStateObject
from repro.sim.rand import spawn


@dataclass
class DFasterConfig(ClusterConfig):
    """Knobs matching the paper's experimental setup (§7.1)."""

    n_workers: int = 8
    vcpus: int = 16
    dpr_enabled: bool = True
    finder: str = "approximate"  # "approximate" | "exact" | "hybrid"
    #: Co-located mode (§7.3): clients run on worker vCPUs.
    colocated: bool = False
    #: Fraction of co-located operations hitting the local shard.
    colocation_local_fraction: float = 1.0
    #: "modeled" runs the counters-only engine (performance studies);
    #: "faster" runs real FasterKV shards (functional studies).
    engine: str = "modeled"


class DFasterCluster(ClusterShell):
    """Everything needed to run one experiment configuration."""

    CONFIG = DFasterConfig

    FINDERS = {
        "approximate": ApproximateDprFinder,
        "exact": ExactDprFinder,
        "hybrid": HybridDprFinder,
    }

    def _finder_class(self):
        return self.FINDERS[self.config.finder]

    def _assemble(self) -> None:
        config = self.config
        if config.replication_factor > 0 and config.colocated:
            raise ValueError(
                "replication is not supported in co-located mode: "
                "co-located drivers serve replies without the reply-"
                "holding hook replication requires")
        self.workers: List[DFasterWorker] = self.hosts
        self.client_targets.extend(
            f"worker-{i}" for i in range(config.n_workers))
        self._build_services()
        for _ in range(config.n_workers):
            self.workers.append(self._build_worker())
        self._colocated: List["_ColocatedDriver"] = []
        if config.colocated:
            for worker in self.workers:
                self._colocated.append(_ColocatedDriver(
                    self, worker,
                    local_fraction=config.colocation_local_fraction))
        else:
            self._build_clients()

    def _build_worker(self) -> DFasterWorker:
        """The next worker VM, registered for manager restarts."""
        config = self.config
        index = len(self.workers)
        address = f"worker-{index}"
        worker = DFasterWorker(
            self.env, self.net, address,
            engine=self._build_engine(address),
            device=self._device(f"dev{index}"),
            cost=self.cost,
            stats=self.stats,
            finder_address=FINDER_ADDRESS,
            manager_address=MANAGER_ADDRESS,
            vcpus=config.vcpus,
            checkpoint_interval=config.checkpoint_interval,
            checkpoints_enabled=config.checkpoints_enabled,
            dpr_enabled=config.dpr_enabled,
            rng=spawn(self._rng, f"worker{index}"),
            # Co-located mode routes the inbox itself (the driver
            # must see replies addressed to its sessions).
            external_dispatch=config.colocated,
        )
        self.manager.worker_registry[address] = worker
        return worker

    def _build_engine(self, address: str):
        config = self.config
        if config.engine == "modeled":
            effective = config.workload.effective_shard_keys(config.n_workers)
            return ModeledStore(address, effective_keys=effective)
        if config.engine == "faster":
            return FasterStateObject(address, bucket_count=1 << 12)
        raise ValueError(f"unknown engine {config.engine!r}")

    def _require(self, feature: str) -> None:
        if self.config.colocated and feature in ("elasticity", "add_worker"):
            raise ValueError(
                f"{feature} is not supported in co-located mode: "
                "co-located sessions bypass partition routing and a "
                "worker's vCPUs are driven by its co-located threads")

    # -- failure injection (§7.4) ----------------------------------------------

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

    def add_worker(self) -> DFasterWorker:
        """Grow the cluster: adding a worker is adding a row to the DPR
        table (§5.3).  The newcomer fast-forwards to Vmax via the §3.4
        laggard rule, so the cut keeps advancing."""
        self._require("add_worker")
        worker = self._build_worker()
        self._join(worker)
        return worker


class _ColocatedDriver:
    """Client threads pinned to a worker's vCPUs (§7.3).

    Each vCPU runs one loop that *serves remote requests first* and
    spends spare cycles driving its own session: local chunks execute
    directly against the shard's gate at memory speed; remote batches
    go over the network with the usual windowing.
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
        co-located clients land in the same endpoint inbox, so this loop
        filters them out and hands everything else to the dispatcher.
        """
        worker = self.worker
        inbox = worker.endpoint.inbox
        while True:
            message = yield inbox  # channel wait
            payload = message.payload
            if isinstance(payload, BatchReply):
                session = self.sessions.get(payload.session_id)
                if session is not None:
                    self._absorb_reply(session, payload)
            else:
                worker._dispatch(message)

    def _absorb_reply(self, session: BatchSession, reply: BatchReply) -> None:
        now = self.cluster.env.now
        if reply.status == "rolled_back":
            session.handle_rollback(reply.world_line, reply.cut, now)
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
        cost = cluster.cost
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
                yield from worker._serve(item)
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
        chunk = self.LOCAL_CHUNK
        write_count = cluster.config.workload.batch_write_count(chunk, rng)
        yield cluster.cost.colocated_local_time(
            chunk, write_count / chunk, worker._rcu_probability(),
            worker._slowdown(),
        )
        request = session.new_batch(worker.address, chunk, write_count,
                                    env.now, worker.address)
        # Straight through the worker's gate: no network, no memo.
        reply = worker._gated(request)
        self._absorb_reply(session, reply)
        if reply.status == "retry":
            session.session.paused_until = env.now + RETRY_DELAY

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
