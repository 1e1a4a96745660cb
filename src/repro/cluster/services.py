"""Cluster services: the DPR-finder service and the cluster manager.

The **finder service** (Figure 6's "DPR Tracking") receives seal and
persist reports from workers, runs the cut-finder algorithm against the
metadata store on a periodic tick (paying the store's round-trip
latency — all off the operation critical path), and broadcasts each new
cut to the workers, which piggyback it on replies.  Broadcasts are
anti-entropic: the current cut is re-sent periodically even when
unchanged, so a worker that lost a broadcast to the network still
converges within one anti-entropy interval.  A metadata access that
stalls past the failover threshold (an injected outage) is treated as a
coordinator failover: the hybrid finder loses its in-memory graph and
falls back to the approximate cut until ``Vmin`` catches up (§3.4).

The **cluster manager** plays the role the paper delegates to
Kubernetes/Service Fabric (§4.1): it detects (or is told about)
failures, assigns world-line serials, halts DPR progress, commands
every worker to roll back to the latest cut, and resumes progress once
all have reported back.  Rollback commands are retransmitted on a
per-worker ack timeout until every survivor's ``RollbackDone`` arrives,
and duplicate or stale ``RollbackDone``s are absorbed idempotently —
the delivery guarantee required of the network is "eventually, with
retries", not "exactly once".

When a :class:`~repro.cluster.replication.ReplicationDirector` is
attached, a detected crash first attempts **promotion instead of
rollback**: if the dead owner has a replica whose applied watermark has
reached the guaranteed cut, a deterministic election (metadata CAS with
a seeded tie-break) picks one, the director re-homes the shard onto it,
and the world-line is left untouched — no survivor rolls anything
back.  Only when no replica qualifies (or a recovery is already in
flight) does the crash fall through to the §4.1 path.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional

from repro.cluster.messages import (
    CutBroadcast,
    Heartbeat,
    PersistReport,
    RollbackCommand,
    RollbackDone,
    SealReport,
)
from repro.cluster.metadata import MetadataStore
from repro.core.finder.base import DprFinder
from repro.core.recovery import RecoveryController
from repro.core.versioning import Token
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rand import make_rng


class FinderService:
    """The DPR-tracking service wrapping a cut-finder algorithm."""

    TICK_INTERVAL = 10e-3
    #: Re-broadcast the current cut at least this often even when it has
    #: not changed, so workers that lost a broadcast converge.
    ANTI_ENTROPY_INTERVAL = 50e-3
    #: A metadata access stalled past this is a coordinator failover:
    #: the in-memory exact graph is gone (hybrid finder, §3.4).
    FAILOVER_THRESHOLD = 20e-3

    def __init__(
        self,
        env: Environment,
        net: Network,
        address: str,
        finder: DprFinder,
        metadata: MetadataStore,
        worker_addresses: List[str],
    ):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        self.finder = finder
        self.metadata = metadata
        #: The cluster's membership list (the shell's, not a copy).
        self.workers = worker_addresses
        self.ticks = 0
        self.broadcasts = 0
        self.coordinator_failovers = 0
        #: Per-object high-watermark over seal reports.  At-least-once
        #: delivery makes duplicated and reordered SealReports normal,
        #: but the precedence graph requires an in-order exactly-once
        #: stream (a duplicate or stale seal raises).  Dropping one is
        #: safe: it only makes the exact cut conservative — exactly as
        #: if the network had dropped the report — and the durable
        #: version table still carries the persist once Vmin passes.
        self._seal_floor: Dict[str, int] = {}
        self.stale_seals = 0
        for worker in self.workers:
            finder.register_object(worker)
        # Sink mode: report absorption never yields (see docs/KERNEL.md).
        self.endpoint.inbox.set_handler(self._on_report)
        env.process(self._tick_loop(), name=f"finder-tick:{address}")

    def _on_report(self, message):
        """Inbox sink handler: absorb one seal/persist report."""
        payload = message.payload
        if isinstance(payload, SealReport):
            token = payload.descriptor.token
            if token.version <= self._seal_floor.get(token.object_id, 0):
                self.stale_seals += 1  # duplicate or reordered-stale
                return
            self._seal_floor[token.object_id] = token.version
            self.finder.report_seal(payload.descriptor)
        elif isinstance(payload, PersistReport):
            self.finder.report_persisted(
                Token(payload.object_id, payload.version)
            )
            if self.env.tracer is not None:
                # Durability is reported; the version now waits for
                # the cut to advance past it (closed in _tick_loop).
                self.env.tracer.begin_span(
                    "dpr.cut_lag",
                    (payload.object_id, payload.version),
                    self.env.now)
        else:
            raise TypeError(f"finder service {self.address} cannot handle "
                            f"a {type(payload).__name__} message")

    def _tick_loop(self):
        env = self.env
        previous = None
        last_broadcast = 0.0
        while True:
            yield self.TICK_INTERVAL
            # The cut computation reads/writes the durable store.
            started = env.now
            yield self.metadata.access()
            if env.now - started > self.FAILOVER_THRESHOLD:
                # The store was unreachable long enough for the lease on
                # the coordinator to lapse: the replacement coordinator
                # has no in-memory precedence graph.
                crash = getattr(self.finder, "crash_coordinator", None)
                if crash is not None:
                    crash()
                    self.coordinator_failovers += 1
            cut = self.finder.tick()
            self.ticks += 1
            vmax = self.finder.max_version()
            tracer = env.tracer
            if tracer is not None:
                tracer.counter("finder.ticks")
                tracer.span("finder.tick", env.now, env.now - started)
                tracer.end_spans(
                    "dpr.cut_lag", env.now,
                    lambda key: key[1] <= cut.version_of(key[0]))
                self._mirror_finder_gauges(tracer)
            # Anti-entropy: a changed cut broadcasts immediately, and an
            # unchanged one is still re-sent periodically — a worker that
            # lost the last broadcast must not stay stale forever.
            due = env.now - last_broadcast >= self.ANTI_ENTROPY_INTERVAL
            if cut.versions != previous or due:
                previous = dict(cut.versions)
                last_broadcast = env.now
                self.broadcasts += 1
                broadcast = CutBroadcast(
                    cut=cut,
                    world_line=self.finder.table.read_world_line(),
                    max_version=vmax,
                )
                for worker in self.workers:
                    self.net.send(self.address, worker, broadcast, size_ops=1)

    def _mirror_finder_gauges(self, tracer) -> None:
        """Mirror the finder's own cost counters into the tracer.

        The core finder algorithms stay observability-free; the service
        reads whichever counters the configured algorithm exposes
        (exact: graph traversal writes; approximate/hybrid: durable
        table scans; hybrid: coordinator crashes)."""
        for attribute, gauge in (
            ("graph_writes", "finder.graph_writes"),
            ("table_scans", "finder.table_scans"),
            ("coordinator_crashes", "finder.coordinator_crashes"),
        ):
            value = getattr(self.finder, attribute, None)
            if value is not None:
                tracer.gauge(gauge, value)
        tracer.gauge("finder.coordinator_failovers",
                     self.coordinator_failovers)


class ClusterManager:
    """Failure detection and recovery orchestration (§4.1, §7.4)."""

    HEARTBEAT_TIMEOUT = 80e-3
    RESTART_DELAY = 50e-3
    #: Unacked RollbackCommands are retransmitted this often until the
    #: addressee's RollbackDone arrives.
    ACK_TIMEOUT = 40e-3

    def __init__(
        self,
        env: Environment,
        net: Network,
        address: str,
        finder: DprFinder,
        metadata: MetadataStore,
        worker_addresses: List[str],
    ):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        self.metadata = metadata
        #: The cluster's membership list (the shell's, not a copy).
        self.workers = worker_addresses
        self.controller = RecoveryController(finder)
        #: (world_line, started_at, finished_at) per recovery.
        self.recoveries: List[Dict] = []
        self._pending: Dict[int, set] = {}
        #: Worker objects the manager can restart (the Kubernetes role:
        #: "the cluster manager restarts failed servers in bounded
        #: time", §4.1).  Populated by the cluster assembly.
        self.worker_registry: Dict[str, object] = {}
        self.retransmissions = 0
        self._last_heartbeat: Dict[str, float] = {}
        self._handling_crash: set = set()
        #: The most recent recovery plan; _handle_crash re-reads this
        #: after its restart wait in case a nested failure (§7.4)
        #: superseded the plan it started with.
        self._latest_plan = None
        #: (worker_id, detected_at, restarted_at) per detected crash.
        self.detected_crashes: List[Dict] = []
        #: Optional :class:`~repro.cluster.replication.ReplicationDirector`;
        #: when set, _handle_crash tries promotion before rollback.
        self.replication = None
        #: One record per successful promotion (no world-line bump).
        self.promotions: List[Dict] = []
        #: Crashes that had replication attached but still had to take
        #: the §4.1 rollback path (no replica qualified, or a recovery
        #: was already in flight).
        self.promotion_fallbacks = 0
        #: Per-primary election epoch counter for the metadata CAS.
        self._election_epochs: Dict[str, int] = {}
        self.endpoint.inbox.set_handler(self._on_message)
        env.process(self._monitor_loop(), name=f"manager-mon:{address}")

    # -- failure injection -------------------------------------------------

    def trigger_worldline_bump(self) -> int:
        """Simulate a failure the way §7.4 does: every worker must roll
        back to the latest DPR cut on a fresh world-line.  Returns the
        new world-line id."""
        self.env.process(self._begin_recovery(), name="manager-recover")
        return self.controller.world_line + 1

    def schedule_failure(self, at_time: float) -> None:
        def fire():
            delay = max(0.0, at_time - self.env.now)
            yield delay
            self.trigger_worldline_bump()
        self.env.process(fire(), name=f"failure@{at_time}")

    # -- recovery protocol ------------------------------------------------------

    def _begin_recovery(self, crashed: Optional[str] = None):
        """Start a §4.1 recovery; a generator returning its plan.

        Every recovery starts here: a §7.4 injected bump (``crashed``
        None) commands every worker, a detected crash every survivor
        (its restart path reports the crashed worker restored).
        """
        env = self.env
        # Persist the new world-line + frozen cut in the metadata store
        # before telling anyone (so the guarantee can never renege).
        yield self.metadata.access()
        plan = self.controller.plan_recovery(self.workers)
        self._latest_plan = plan
        self._pending[plan.world_line] = set(self.workers)
        self.recoveries.append({
            "world_line": plan.world_line,
            "started_at": env.now,
            "finished_at": None,
        })
        if env.tracer is not None:
            env.tracer.begin_span("recovery", plan.world_line, env.now)
        command = RollbackCommand(world_line=plan.world_line, cut=plan.cut)
        for worker in self.workers:
            if worker != crashed:
                self.net.send(self.address, worker, command, size_ops=1)
        env.process(self._retransmit_loop(plan.world_line, command),
                    name=f"manager-retx:{plan.world_line}")
        return plan

    def _retransmit_loop(self, world_line: int, command: RollbackCommand):
        """Re-send the rollback command until every addressee acked.

        A lost RollbackCommand (or a lost RollbackDone) must not wedge
        recovery: any worker still pending after the ack timeout gets
        the command again.  Workers ack stale commands too, and the
        manager absorbs duplicate acks idempotently, so at-least-once
        delivery is sufficient.
        """
        env = self.env
        while True:
            yield self.ACK_TIMEOUT
            pending = self._pending.get(world_line)
            if pending is None:
                return  # everyone acked
            if world_line < self.controller.world_line:
                return  # superseded by a nested failure's recovery
            for worker in sorted(pending):
                if worker in self._handling_crash:
                    continue  # its restart path reports completion
                if worker not in self.workers:
                    # Replaced by a promotion while this recovery was in
                    # flight: the address will never ack, and a stale
                    # command must not chase whoever inherited its
                    # duties.
                    continue
                self.net.send(self.address, worker, command, size_ops=1)
                self.retransmissions += 1

    # -- failure detection (heartbeats) ---------------------------------------

    def _monitor_loop(self):
        """Detect crashed workers by heartbeat silence and restart them."""
        env = self.env
        check_interval = self.HEARTBEAT_TIMEOUT / 4
        while True:
            yield check_interval
            # Seed the clock for restartable workers that have never
            # beaten, so a worker that crashes before its first
            # heartbeat is still caught within HEARTBEAT_TIMEOUT.
            # (Unregistered addressees — e.g. D-Redis proxies, which do
            # not send heartbeats at all — are never monitored.)
            for worker_id in self.workers:
                if worker_id in self.worker_registry:
                    self._last_heartbeat.setdefault(worker_id, env.now)
            if not self._last_heartbeat:
                continue  # nothing monitorable; heartbeats disabled
            for worker_id in self.workers:
                last = self._last_heartbeat.get(worker_id)
                if last is None or worker_id in self._handling_crash:
                    continue
                if env.now - last > self.HEARTBEAT_TIMEOUT:
                    self._handling_crash.add(worker_id)
                    env.process(self._handle_crash(worker_id),
                                name=f"crash:{worker_id}")

    def _handle_crash(self, worker_id: str):
        """Handle a detected crash: promote a caught-up replica if one
        exists, otherwise restart the dead worker and roll the
        survivors back (§4.1)."""
        env = self.env
        record = {"worker_id": worker_id, "detected_at": env.now,
                  "restarted_at": None}
        self.detected_crashes.append(record)
        if self.replication is not None:
            promoted = yield from self._try_promotion(worker_id, record)
            if promoted:
                return
            self.promotion_fallbacks += 1
        plan = yield from self._begin_recovery(worker_id)
        # Bounded-time restart of the failed worker from durable state.
        yield self.RESTART_DELAY
        if self.controller.world_line != plan.world_line:
            # A nested failure superseded this recovery while the
            # restart was in flight (§7.4): restart the worker onto
            # the newest world-line and cut, not the stale plan's.
            plan = self._latest_plan
        worker = self.worker_registry[worker_id]
        resume = self.controller.finder.table.max_version() + 1
        worker.restart(plan.cut, plan.world_line, resume_version=resume)
        record["restarted_at"] = env.now
        self._last_heartbeat[worker_id] = env.now
        self._handling_crash.discard(worker_id)
        # The restarted worker is already at the cut: report it restored.
        self._absorb_rollback_done(RollbackDone(worker_id, plan.world_line))

    def _try_promotion(self, worker_id: str, record: Dict):
        """Promote a caught-up replica of ``worker_id`` — if one exists.

        Qualification: the replica's *applied* watermark (published to
        the metadata store) has reached the dead owner's version in the
        current guaranteed cut.  Because the primary withheld every
        client "ok" until all replicas acked the batch, a qualified
        replica provably holds every acknowledged write — taking over
        loses nothing any client was told succeeded, so the world-line
        is left untouched and no survivor rolls back.

        Election is deterministic: among the most-caught-up qualified
        replicas the winner is drawn with a seeded RNG (crc32 of the
        primary and election epoch) and installed in the metadata CAS
        table, so concurrent electors converge on the same choice.

        Returns True on success; False routes the caller to §4.1.
        """
        if self._pending or self.controller.in_progress:
            return False
        yield self.metadata.access()
        # Re-validate after the metadata round trip: a §7.4 bump or a
        # nested failure may have started a recovery meanwhile, and a
        # promotion must never interleave with an in-flight rollback.
        if (self._pending or self.controller.in_progress
                or worker_id not in self._handling_crash):
            return False
        cut = self.controller.finder.current_cut()
        dead = self.worker_registry.get(worker_id)
        object_id = dead.engine.object_id if dead is not None else worker_id
        required = cut.version_of(object_id)
        qualified = [
            (replica_id, applied)
            for replica_id, applied, _durable
            in self.metadata.replicas_of(worker_id)
            if applied >= required
        ]
        if not qualified:
            return False
        best = max(applied for _replica_id, applied in qualified)
        leaders = sorted(replica_id for replica_id, applied in qualified
                         if applied == best)
        epoch = self._election_epochs.get(worker_id, 0) + 1
        self._election_epochs[worker_id] = epoch
        seed = zlib.crc32(f"elect:{worker_id}:{epoch}".encode("utf-8"))
        candidate = leaders[make_rng(seed).randrange(len(leaders))]
        winner = self.metadata.elect(worker_id, epoch, candidate)
        node = self.replication.promote(worker_id, winner)
        if node is None:
            return False
        # The director swapped the address in the membership list.
        self.worker_registry.pop(worker_id, None)
        self.worker_registry[node.address] = node
        self._last_heartbeat.pop(worker_id, None)
        self._last_heartbeat[node.address] = self.env.now
        self._handling_crash.discard(worker_id)
        record["restarted_at"] = self.env.now
        record["promoted_to"] = node.address
        self.promotions.append({
            "time": self.env.now,
            "worker_id": worker_id,
            "promoted": node.address,
            "world_line": self.controller.world_line,
        })
        if self.env.tracer is not None:
            self.env.tracer.span("manager.promotion", self.env.now, 0.0,
                                 worker=worker_id, promoted=node.address)
        return True

    def _on_message(self, message):
        """Inbox sink handler: absorb one heartbeat or rollback ack."""
        payload = message.payload
        if isinstance(payload, Heartbeat):
            # A straggler heartbeat from a promoted-away address must
            # not resurrect its clock entry — membership is the workers
            # list, not whoever still has packets in flight.
            if payload.worker_id in self.workers:
                self._last_heartbeat[payload.worker_id] = self.env.now
        elif isinstance(payload, RollbackDone):
            self._absorb_rollback_done(payload)
        else:
            raise TypeError(f"cluster manager {self.address} cannot handle "
                            f"a {type(payload).__name__} message")

    def _absorb_rollback_done(self, payload: RollbackDone) -> None:
        pending = self._pending.get(payload.world_line)
        if pending is None:
            return
        pending.discard(payload.worker_id)
        if payload.world_line == self.controller.world_line:
            # Only the newest world-line's completions count — a nested
            # failure supersedes older recoveries and re-halts DPR until
            # its own rollbacks finish.
            self.controller.report_restored(payload.worker_id)
        if not pending:
            del self._pending[payload.world_line]
            for record in self.recoveries:
                if (record["world_line"] == payload.world_line
                        and record["finished_at"] is None):
                    record["finished_at"] = self.env.now
                    if self.env.tracer is not None:
                        self.env.tracer.end_span(
                            "recovery", payload.world_line, self.env.now,
                            world_line=payload.world_line)
