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
from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.messages import BatchReply, BatchRequest
from repro.cluster.modeled import ModeledStore
from repro.cluster.shell import (
    FINDER_ADDRESS,
    MANAGER_ADDRESS,
    ClusterConfig,
    ClusterShell,
)
from repro.cluster.worker import GateHost
from repro.core.libdpr.server import OK
from repro.sim.kernel import Environment
from repro.sim.queues import Queue
from repro.sim.storage import StorageDevice


class RedisMode(enum.Enum):
    PLAIN = "plain"
    PROXY = "proxy"
    DPR = "dpr"


@dataclass
class DRedisConfig(ClusterConfig):
    """Setup mirroring §7.5: one Redis + one proxy per shard VM."""

    n_shards: int = 8
    mode: RedisMode = RedisMode.DPR
    client_threads: int = 2
    #: §7.5 runs five minutes with one checkpoint; scaled to sim length.
    checkpoint_interval: float = 1.0
    #: None | "always" | "everysec" — the Figure 19 durability levels.
    aof: Optional[str] = None


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
        cost = self.cluster.cost
        aof = self.cluster.config.aof
        while True:
            request, respond = yield self.queue  # channel wait
            if request == "BGSAVE":
                # The exclusive-latch window (§6): command stream pauses.
                yield cost.BGSAVE_PAUSE
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


class _DRedisProxy(GateHost):
    """The D-Redis wrapper process on each shard VM (Figure 9).

    In PROXY mode it only forwards (charging forwarding cost); in DPR
    mode it additionally runs the DPR server gate around the unmodified
    Redis instance, with a ModeledStore carrying the DPR bookkeeping
    and the BGSAVE/flush pair implementing ``Commit()``.  The gate runs
    at *egress*, when Redis hands the batch back: that is the moment
    the batch counts as executed, so that is where the world-line is
    decided (the ingress check only saves queueing doomed batches).
    """

    EXECUTES_OPS = False  # Redis runs the body; the engine keeps the books

    def __init__(self, env: Environment, cluster: "DRedisCluster",
                 shard_id: int, redis: _RedisInstance,
                 device: StorageDevice):
        config = cluster.config
        address = f"proxy-{shard_id}"
        super().__init__(env, cluster.net, address,
                         cluster._build_engine(address), device, cluster.cost,
                         FINDER_ADDRESS, MANAGER_ADDRESS,
                         dpr_enabled=config.mode is RedisMode.DPR,
                         checkpoint_interval=config.checkpoint_interval)
        self.shard_id = shard_id
        self.redis = redis
        #: Descriptors the gate flushed inside the ``commit()`` call in
        #: progress (None outside one) — see :meth:`_run_checkpoint`.
        self._commit_flushes: Optional[list] = None
        #: Responses from Redis awaiting outbound forwarding.
        self._egress = Queue(env, name=f"proxy-out:{address}")
        env.process(self._receive_loop(), name=f"proxy:{address}")
        env.process(self._egress_loop(), name=f"proxy-out:{address}")
        if self.dpr_enabled and config.checkpoints_enabled:
            env.process(self._checkpoint_loop(), name=f"proxy-ckpt:{address}")

    # -- request path -----------------------------------------------------

    def _receive_loop(self):
        env = self.env
        cost = self.cost
        while True:
            message = yield self.endpoint.inbox  # channel wait
            request = message.payload
            if not isinstance(request, BatchRequest):
                self._control(request)
                continue
            key = (request.session_id, request.batch_id)
            cached = self.gate.admit(key)
            if cached is not None:
                # Duplicate: replaying it would double-apply.
                self._answer_duplicate(request, cached)
                continue
            # Inbound forwarding cost (read header, re-frame).
            yield cost.proxy_time(request.op_count, dpr=self.dpr_enabled)
            reply = self._bounce_unowned(request)
            if reply is None and self.dpr_enabled:
                status = self.gate.check(request.world_line)
                if status != OK:
                    reply = BatchReply(
                        request.batch_id, request.session_id, self.address,
                        status, self.gate.world_line, 0, request.op_count,
                        self.cached_cut, env.now)
            if reply is not None:
                # Refused before Redis saw it: nothing ran, nothing to
                # memoize.
                self.gate.release(key)
                self.net.send(self.address, request.reply_to, reply,
                              size_ops=request.op_count)
                continue
            self.redis.queue.put((request, self._egress.put))

    def _egress_loop(self):
        """Single-threaded outbound forwarding (the proxy, like Redis,
        is one thread — ingress and egress share it in spirit; the two
        loops never overlap service for the same batch)."""
        env = self.env
        cost = self.cost
        while True:
            request: BatchRequest = yield self._egress  # channel wait
            yield cost.proxy_time(request.op_count, dpr=self.dpr_enabled)
            if self.dpr_enabled:
                reply = self._gated(request)
            else:
                reply = BatchReply(
                    request.batch_id, request.session_id, self.address, OK,
                    0, 0, request.op_count, None, env.now)
            self.gate.remember((request.session_id, request.batch_id), reply)
            # Chain gating: an "ok" is held until every replica acks.
            self._send_reply(request, reply)

    # -- Commit() via BGSAVE ----------------------------------------------------

    def _checkpoint_loop(self):
        while True:
            yield self.checkpoint_interval
            if self._machine_busy:
                continue  # a forced Commit() is still in flight
            yield from self._run_checkpoint()

    def _run_checkpoint(self):
        """One Commit(): BGSAVE is an exclusive latch, so Commits never
        overlap (``_machine_busy`` guards both the loop and forced
        out-of-band checkpoints)."""
        env = self.env
        self._machine_busy = True
        try:
            # Which of the seals the gate flushes is Commit()'s own is
            # known only once commit() returns it: its flush is the
            # BGSAVE below, the others were laggard fast-forward seals.
            self._commit_flushes = flushes = []
            descriptor = self.gate.commit(self.cached_max_version)
            self._commit_flushes = None
            for sealed in flushes:
                if sealed is not descriptor:
                    self._flush_finished(sealed)
            # Exclusive latch: BGSAVE through the Redis command queue.
            saved = env.event(name=f"bgsave:{self.address}")
            self.redis.queue.put(("BGSAVE", lambda _r: saved.succeed()))
            yield saved
            # A rollback that landed while the latch was queued dropped
            # the version: nothing to write.  Otherwise the background
            # RDB write, after which LASTSAVE would advance.
            version = descriptor.token.version
            if self.engine.is_sealed(version):
                yield self.device.write(self.engine.checkpoint_bytes(version))
            self._flush_finished(descriptor)
        finally:
            self._machine_busy = False

    def _flush(self, descriptor) -> None:
        """The gate's flush hook.  Fast-forward seals persist with the
        next RDB write, so they are durable at once via snapshot
        aliasing; the Commit() seal waits for its own BGSAVE."""
        if self._commit_flushes is not None:
            self._commit_flushes.append(descriptor)
        else:
            self._flush_finished(descriptor)

    # -- Restore() via restart ------------------------------------------------------

    def _rollback_delay(self, applied: bool) -> float:
        """Restore() restarts the Redis instance (§6), which dwarfs
        THROW-style windows; a repeated command re-acks at once."""
        return self.cost.ROLLBACK_WINDOW * 2 if applied else 0.0


class DRedisCluster(ClusterShell):
    """Assembled D-Redis / Redis / Redis+proxy deployment."""

    CONFIG = DRedisConfig

    def _assemble(self) -> None:
        config = self.config
        if (config.replication_factor > 0
                and config.mode is not RedisMode.DPR):
            raise ValueError("replication_factor needs DPR mode")
        self.redis_instances: List[_RedisInstance] = []
        self.proxies = self.hosts
        for shard in range(config.n_shards):
            if config.mode is RedisMode.PLAIN:
                redis = _RedisInstance(self.env, self, shard)
                self.redis_instances.append(redis)
                address = f"redis-{shard}"
                endpoint = self.net.register(address)
                self.env.process(self._plain_frontend(redis, endpoint),
                                 name=f"redis-fe:{shard}")
                self.client_targets.append(address)
            else:
                proxy = self._build_shard()
                self.hosts.append(proxy)
                self.client_targets.append(proxy.address)
        if config.mode is RedisMode.DPR:
            self._build_services()
        self._build_clients()

    def _build_engine(self, address: str) -> ModeledStore:
        config = self.config
        return ModeledStore(
            address,
            effective_keys=config.workload.effective_shard_keys(
                config.n_shards))

    def _build_shard(self) -> _DRedisProxy:
        """One more shard VM: a Redis instance and its proxy."""
        shard = len(self.redis_instances)
        redis = _RedisInstance(self.env, self, shard)
        self.redis_instances.append(redis)
        return _DRedisProxy(self.env, self, shard, redis,
                            self._device(f"dev{shard}"))

    def _require(self, feature: str) -> None:
        if self.config.mode is not RedisMode.DPR:
            raise RuntimeError(f"{feature} requires DPR mode")

    def _plain_frontend(self, redis: _RedisInstance, endpoint):
        """PLAIN mode: the Redis instance reads its own socket."""
        while True:
            message = yield endpoint.inbox  # channel wait
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

    # -- membership changes (§5.3) -----------------------------------------

    def add_shard(self) -> _DRedisProxy:
        """Grow the deployment by one shard VM (Redis + DPR proxy).

        DPR mode only: the newcomer registers with the finder (a new
        row in the DPR table) and clients may route to it.  Pair with
        ``elastic.scale_out(proxy)`` to hand it partitions.
        """
        self._require("add_shard")
        proxy = self._build_shard()
        self._join(proxy)
        return proxy
