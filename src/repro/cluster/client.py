"""Client machines: windowed, batched DPR sessions (§7.1).

Each client thread owns one session and keeps a window of ``w``
outstanding operations, sent as batches of ``b`` — the paper's
``w = 16 b`` default keeps roughly two batches in flight per worker on
an 8-machine cluster.  The DPR bookkeeping itself (``Vs``, dependency
headers, commit tracking against piggybacked cuts, world-line handling,
at-least-once tolerance, RETRY backoff) is
:class:`repro.core.session.Session`'s; this module frames it for the
cluster wire format (:class:`BatchSession`) and schedules it
(:class:`ClientMachine`: issue loops, reply dispatch, the timeout
sweeper).  Batch ids are allocated per client machine so concurrent
clusters in one process never share a counter.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.cluster.messages import (
    BatchIds,
    BatchReply,
    BatchRequest,
    ReplicaReadReply,
    ReplicaReadRequest,
    batch_request,
)
from repro.cluster.stats import ClusterStats
from repro.core.cuts import DprCut
from repro.core.session import (
    RECOVERY_PAUSE,
    RETRY_DELAY,
    Session,
    Span,
)
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rand import make_rng, spawn
from repro.workloads.ycsb import WorkloadSpec


class BatchSession:
    """Closed-loop adapter over one :class:`~repro.core.session.Session`.

    The protocol — seqno spans, ``Vs``, deps, world-line, commit
    tracking, backoff — is the core session's (``self.session``), whose
    window this adapter keys by batch id because that is what a
    ``BatchReply`` echoes.  What is left here is what the cluster wire
    format and the benchmark harness add: ``BatchRequest`` /
    ``BatchReply`` framing and ``ClusterStats`` / tracer accounting.
    """

    def __init__(self, session_id: str, stats: ClusterStats,
                 ids: Optional[BatchIds] = None, tracer=None):
        self.session_id = session_id
        self.session = Session(session_id)
        self.stats = stats
        self.tracer = tracer
        self._ids = ids if ids is not None else BatchIds()
        #: batch id -> span: in-flight and completed-but-uncommitted
        #: batches in send order (the session's own window).
        self.records: Dict[int, Span] = self.session.window

    def new_batch(self, object_id: str, op_count: int, write_count: int,
                  now: float, reply_to: str,
                  partition: Optional[int] = None) -> BatchRequest:
        batch_id = self._ids.allocate()
        span = self.session.issue(object_id, now, op_count, batch_id)
        return batch_request(self.session_id, span, batch_id, reply_to,
                             write_count, None, partition)

    # -- responses ----------------------------------------------------------

    def complete(self, reply: BatchReply, now: float) -> None:
        stats = self.stats
        span = self.records.get(reply.batch_id)
        if span is None:
            # Lost to a rollback, already retired (duplicate) — or a
            # reply for a batch the timeout sweeper wrote off: those
            # ops *did* run, so move them from aborted back to
            # completed instead of leaving the ledger skewed.
            ops = self.session.reconcile(reply.batch_id)
            if ops:
                stats.aborted.add(now, -ops)
                stats.completed.add(now, ops)
            return
        retired = self.session.absorb(reply.batch_id, reply.version, now,
                                      reply.object_id, reply.cut)
        if retired is None:
            return  # duplicated reply; the first copy did the accounting
        stats.completed.add(now, span.op_count)
        stats.operation_latency.add(now - span.issued_at)
        if retired:
            self._retire(retired, now)

    def abandon(self, span: Span, now: float) -> None:
        """Write a stuck batch off as aborted; a straggling reply can
        still be reconciled."""
        ops = self.session.abandon(span.key)
        if ops:
            self.stats.aborted.add(now, ops)

    def refresh_commit(self, cut: DprCut, now: float) -> None:
        """Retire completed batches the cut covers (relaxed DPR: pending
        batches do not block later independent ones, §5.4)."""
        self._retire(self.session.refresh_commit(cut, now), now)

    def _retire(self, retired, now: float) -> None:
        stats = self.stats
        tracer = self.tracer
        for span in retired:
            latency = now - span.issued_at
            stats.committed.add(now, span.op_count)
            stats.commit_latency.add(latency)
            if tracer is not None:
                tracer.span("client.commit", now, latency,
                            session=self.session_id)

    # -- failure handling -------------------------------------------------------

    def handle_rollback(self, new_world_line: int, cut: Optional[DprCut],
                        now: float) -> None:
        """World-line bump: commit what the cut covers, abort the rest.

        Fleet clients have no application above them to surface the
        surviving prefix to, so the rollback is acknowledged at once
        and the issuing loop just waits out the recovery pause (§7.4).
        """
        session = self.session
        error = session.observe_failure(new_world_line, cut, now)
        if error is None:
            return  # duplicate notification
        session.acknowledge_rollback()
        stats = self.stats
        for span in error.committed:
            stats.committed.add(now, span.op_count)
        for span in error.aborted:
            stats.aborted.add(now, span.op_count)
        session.paused_until = now + RECOVERY_PAUSE


class ClientMachine:
    """One client VM: ``n_threads`` sessions sharing a NIC endpoint."""

    #: Batches unanswered this long are abandoned (the worker crashed
    #: mid-flight); the TCP analog of a broken connection.
    REQUEST_TIMEOUT = 0.2

    def __init__(
        self,
        env: Environment,
        net: Network,
        address: str,
        worker_addresses: List[str],
        workload: WorkloadSpec,
        stats: ClusterStats,
        batch_size: int = 1024,
        window: Optional[int] = None,
        n_threads: int = 4,
        rng: Optional[random.Random] = None,
    ):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        #: The cluster's membership list (the shell's, not a copy).
        self.workers = worker_addresses
        self.workload = workload
        self.stats = stats
        self.batch_size = batch_size
        self.window = window if window is not None else 16 * batch_size
        self._rng = make_rng(rng)
        #: Optional ElasticCoordinator (§5.3): when set, batches route
        #: by partition through a locally cached owner map instead of
        #: uniformly over ``self.workers``.
        self.router = None
        self._owner_cache: Dict[int, str] = {}
        self.not_owner_bounces = 0
        self._batch_ids = BatchIds()
        self.sessions: Dict[str, BatchSession] = {}
        self._wakeups: Dict[str, object] = {}
        self.running = True
        for thread in range(n_threads):
            session_id = f"{address}/s{thread}"
            session = BatchSession(session_id, stats, ids=self._batch_ids,
                                   tracer=env.tracer)
            self.sessions[session_id] = session
            env.process(self._issue_loop(session, spawn(self._rng, session_id)),
                        name=f"client:{session_id}")
        # Sink mode: reply handling never yields, so the receive side is
        # a plain per-message handler instead of a parked generator.
        self.endpoint.inbox.set_handler(self._on_reply)
        env.process(self._timeout_sweeper(), name=f"client-to:{address}")

    # -- issuing -------------------------------------------------------------

    def _issue_loop(self, session: BatchSession, rng: random.Random):
        env = self.env
        # Hoists for the per-batch turn.  ``self.workers`` is the
        # shell's membership list: joins and promotions change it
        # mid-flight, in place.
        randrange = rng.randrange
        batch_size = self.batch_size
        window = self.window
        address = self.address
        send = self.net.send
        new_batch = session.new_batch
        dpr = session.session
        write_count_of = self.workload.batch_write_count
        window_name = "window:" + session.session_id
        # A tiny issue cost keeps a thread from queueing its whole
        # window at one instant (client-side CPU).
        issue_cost = 1e-6 + 20e-9 * batch_size
        while self.running:
            if env.now < dpr.paused_until:
                yield dpr.paused_until - env.now
                continue
            if dpr.outstanding_ops + batch_size > window:
                event = env.event(name=window_name)
                self._wakeups[session.session_id] = event
                yield event
                continue
            router = self.router
            if router is None:
                workers = self.workers
                target = workers[randrange(len(workers))]
                partition = None
            else:
                partition = randrange(router.partition_count)
                target = self._owner_cache.get(partition)
                if target is None:
                    # Cache miss: one timed metadata read (§5.3 —
                    # clients cache the mapping and only re-read it on
                    # bounces or misses).
                    yield router.metadata.access()
                    if not self.running:
                        # stop() landed during the metadata read; do
                        # not issue one more batch after shutdown.
                        break
                    target = router.metadata.owner_of(partition)
                    if target is None:
                        # Mid-transfer, owner-less window: retry.
                        yield RETRY_DELAY
                        continue
                    self._owner_cache[partition] = target
            write_count = write_count_of(batch_size, rng)
            request = new_batch(target, batch_size, write_count,
                                env.now, address, partition)
            send(address, target, request, size_ops=batch_size)
            yield issue_cost

    def _wake(self, session_id: str) -> None:
        event = self._wakeups.pop(session_id, None)
        if event is not None and not event.triggered:
            event.succeed()

    # -- receiving ---------------------------------------------------------------

    def _on_reply(self, message):
        """Inbox sink handler: fold one reply into its session."""
        env = self.env
        reply: BatchReply = message.payload
        session = self.sessions.get(reply.session_id)
        if session is None:
            return
        dpr = session.session
        if reply.status == "rolled_back":
            session.handle_rollback(reply.world_line, reply.cut, env.now)
        elif reply.status == "not_owner":
            # Bounced off a stale owner mapping (§5.3): the ops
            # never ran, so forget the batch, invalidate the cached
            # entry, and let the issue loop re-resolve the owner.
            dpr.drop(reply.batch_id)
            self.not_owner_bounces += 1
            if reply.partition is not None:
                self._owner_cache.pop(reply.partition, None)
            dpr.paused_until = max(dpr.paused_until,
                                   env.now + RETRY_DELAY)
        elif reply.status == "retry":
            dpr.drop(reply.batch_id)
            dpr.backoff(env.now, self._rng.random())
        else:
            session.complete(reply, env.now)
        self._wake(reply.session_id)

    def _timeout_sweeper(self):
        """Abandon batches stuck on a crashed worker (broken-pipe analog)."""
        env = self.env
        while self.running:
            yield self.REQUEST_TIMEOUT / 2
            if not self.running:
                break
            deadline = env.now - self.REQUEST_TIMEOUT
            for session in self.sessions.values():
                stuck = [
                    span for span in session.records.values()
                    if span.version is None and span.issued_at < deadline
                ]
                for span in stuck:
                    session.abandon(span, env.now)
                if stuck:
                    self._wake(session.session_id)

    # -- control --------------------------------------------------------------------

    def stop(self) -> None:
        self.running = False


class GiveUp:
    """Self-addressed marker waking a waiter whose reply is lost.

    A request awaited through :func:`await_reply` that goes unanswered
    sends one to its own endpoint, carrying the request's id.  It is
    routed through the :class:`~repro.sim.network.Network` — never
    injected into the inbox directly — and re-sent on a timer until the
    waiter wakes, so a dropped marker cannot wedge the waiter either.
    """

    __slots__ = ("request_id",)

    def __init__(self, request_id: int):
        self.request_id = request_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GiveUp(request_id={self.request_id})"


def await_reply(client, request_id: int, is_reply, resend=None,
                max_resends: int = 0):
    """A generator: wait on ``client``'s inbox for *its* reply.

    Returns the first payload ``is_reply`` accepts, or None once the
    request is given up on.  Every ``client.REQUEST_TIMEOUT`` without
    it, a timer calls ``resend`` — at most ``max_resends`` times — and
    after that sends a :class:`GiveUp` for ``request_id`` to the
    client's own endpoint, until the wait ends.  Anything else in the
    inbox (a stale reply to an earlier attempt, a duplicate under
    reorder/duplicate fault plans) is counted in
    ``client.mismatched_replies`` and dropped, never misattributed.
    """
    state = {"done": False}
    client.env.process(
        _reply_timer(client, request_id, resend, max_resends, state),
        name=f"reply-timer:{client.address}/{request_id}")
    try:
        while True:
            message = yield client.endpoint.inbox  # channel wait
            payload = message.payload
            if isinstance(payload, GiveUp):
                if payload.request_id == request_id:
                    return None
            elif is_reply(payload):
                return payload
            client.mismatched_replies += 1
    finally:
        state["done"] = True


def _reply_timer(client, request_id: int, resend, max_resends: int,
                 state: Dict):
    resends = 0
    while not state["done"]:
        yield client.REQUEST_TIMEOUT
        if state["done"]:
            return
        if resends < max_resends:
            resends += 1
            resend()
        else:
            client.net.send(client.address, client.address,
                            GiveUp(request_id), size_ops=1)


class ReplicaReadClient:
    """Recoverable-prefix reads against replica chains (read scaling).

    The new read mode the replication tentpole adds: GET batches are
    routed to any replica of the target shard whose published
    ``durable_version`` has reached the shard's version in the current
    guaranteed DPR cut, and are answered from a snapshot *at or below*
    that cut version.  Such a read can *never observe a rollback*: a
    §4.1 recovery restores to the guaranteed cut, so everything at or
    below it survives by construction — the replica additionally
    refuses ("behind") if its own watermarks lag the requested cut
    version, so the guarantee holds even with stale routing state.

    Routing state (cut versions and per-chain replica records) is
    cached from the metadata store and refreshed on an interval — reads
    stay off the primary's critical path and off the store's hot path
    alike.  Replica choice is seeded-random over the qualified set, so
    runs are deterministic and load spreads across chains.
    """

    REFRESH_INTERVAL = 20e-3
    REQUEST_TIMEOUT = 50e-3
    #: A read returns None after this many failed attempts.
    MAX_ATTEMPTS = 50

    def __init__(self, env: Environment, net: Network, address: str,
                 metadata, primaries: List[str],
                 rng: Optional[random.Random] = None):
        self.env = env
        self.net = net
        self.address = address
        self.endpoint = net.register(address)
        self.metadata = metadata
        #: The shards' primary addresses (== their engine object ids;
        #: promotion preserves the id, so routing keys stay stable).
        self.primaries = list(primaries)
        self._rng = make_rng(rng)
        self._next_read = 0
        #: primary -> guaranteed-cut version, from the last refresh.
        self._cut_versions: Dict[str, int] = {}
        #: primary -> [(replica_id, applied, durable)], last refresh.
        self._records: Dict[str, List[Tuple[str, int, int]]] = {}
        #: When routing was last read from the store; None forces a
        #: refresh on the next attempt, whatever ``REFRESH_INTERVAL`` is.
        self._last_refresh: Optional[float] = None
        self.reads_completed = 0
        self.reads_failed = 0
        #: "behind" bounces plus rounds with no qualified replica.
        self.behind_bounces = 0
        self.mismatched_replies = 0
        #: (time, primary, durable_version, key count) per served read.
        self.read_log: List[Tuple[float, str, int, int]] = []
        #: Full audit ledger: what each read returned and under which
        #: watermark — the prefix-recoverability tests check no value
        #: here was ever rolled back.
        self.history: List[Dict] = []

    # -- routing ---------------------------------------------------------

    def _refresh_routing(self) -> None:
        self._last_refresh = self.env.now
        cut = self.metadata.version_table.read_cut()
        self._cut_versions = {p: cut.version_of(p) for p in self.primaries}
        self._records = {p: self.metadata.replicas_of(p)
                         for p in self.primaries}

    def _pick_replica(self, primary: str) -> Optional[str]:
        records = self._records.get(primary, [])
        needed = self._cut_versions.get(primary, 0)
        qualified = [replica_id for replica_id, applied, durable in records
                     if durable >= needed and applied >= needed]
        if not qualified:
            return None
        return qualified[self._rng.randrange(len(qualified))]

    def _note_behind(self, primary: str, reply) -> None:
        """Fold a "behind" bounce into the cached records so the next
        attempt routes around the lagging replica."""
        records = self._records.get(primary)
        if not records:
            return
        updated = []
        for replica_id, applied, durable in records:
            if replica_id == reply.replica_id:
                durable = min(durable, reply.durable_version)
            updated.append((replica_id, applied, durable))
        self._records[primary] = updated

    # -- the read itself -------------------------------------------------

    def read(self, primary: str, keys):
        """A generator process: one recoverable-prefix GET batch.

        Returns the "ok" :class:`~repro.cluster.messages.ReplicaReadReply`
        (values ordered as ``keys``), or None once ``MAX_ATTEMPTS``
        rounds found no replica able to serve at the guaranteed cut.
        """
        env = self.env
        keys = tuple(keys)
        for _attempt in range(self.MAX_ATTEMPTS):
            if (self._last_refresh is None
                    or env.now - self._last_refresh > self.REFRESH_INTERVAL):
                yield self.metadata.access()
                self._refresh_routing()
            target = self._pick_replica(primary)
            if target is None:
                self.behind_bounces += 1
                self._last_refresh = None
                yield RETRY_DELAY
                continue
            self._next_read += 1
            request = ReplicaReadRequest(
                self._next_read, self.address, keys,
                self._cut_versions.get(primary, 0), created_at=env.now)
            self.net.send(self.address, target, request,
                          size_ops=max(1, len(keys)))
            read_id = request.read_id
            reply = yield from await_reply(
                self, read_id, lambda payload: (
                    isinstance(payload, ReplicaReadReply)
                    and payload.read_id == read_id))
            if reply is None:
                # Lost in transit or the replica is down: re-route.
                self._last_refresh = None
                continue
            if reply.status == "behind":
                self.behind_bounces += 1
                self._note_behind(primary, reply)
                yield RETRY_DELAY
                continue
            self.reads_completed += 1
            self.read_log.append((env.now, primary, reply.durable_version,
                                  len(keys)))
            self.history.append({
                "time": env.now,
                "primary": primary,
                "replica": reply.replica_id,
                "keys": keys,
                "values": reply.values,
                "durable_version": reply.durable_version,
                "min_version": request.min_version,
            })
            return reply
        self.reads_failed += 1
        return None

    # -- closed-loop driver (benchmarks) ---------------------------------

    def run_closed_loop(self, batch_keys: int = 8, keyspace: int = 1024):
        """Issue reads back-to-back, round-robin over the chains.

        The replication benchmark's read side: completed reads are
        tallied in ``read_log`` (timestamped), so throughput over a
        measurement window falls out of a single scan.
        """
        env = self.env
        index = 0
        while True:
            primary = self.primaries[index % len(self.primaries)]
            index += 1
            base = self._rng.randrange(keyspace)
            keys = tuple((base + offset) % keyspace
                         for offset in range(batch_keys))
            yield from self.read(primary, keys)
