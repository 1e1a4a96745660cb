"""Open-loop fleet traffic with an admission-control stack.

Closed-loop clients (:mod:`repro.cluster.client`) measure *capacity*:
each thread waits for its window before issuing more, so offered load
collapses to whatever the cluster sustains and queueing delay hides
inside the think loop — the coordinated-omission trap.  This module
measures *latency under offered load*: sessions arrive on their own
schedule whether or not the cluster keeps up, which is what an SLO
knee curve needs (docs/OPENLOOP.md).

The pieces, front to back:

- **Arrival process** — a generator samples how many sessions arrive
  each tick from a Poisson process (or a log-normal doubly-stochastic
  one for bursty fleets).
- **Cohorts** — sessions drawn in one tick share a timestamp and
  nothing downstream can tell them apart, so a tick's arrivals are one
  ``(arrival_time, count)`` run and stay one until a batch boundary or
  the backlog bound splits it.  Arrivals, admission, dispatch and
  latency recording cost O(ticks + batches), never O(sessions).
- **Admission stack** — runs land in a :class:`CohortBacklog` bounded
  in sessions (shed-oldest or reject), pass an optional token bucket,
  and dispatch is capped at ``max_inflight`` batches per target:
  queue-based load leveling in front of the cluster, observable
  through the backlog's depth gauge, watermark, and shed counters
  (docs/OBSERVABILITY.md).
- **DPR driver** — admitted sessions coalesce into
  :class:`~repro.cluster.messages.BatchRequest`\\ s issued on one
  :class:`repro.core.session.Session` spanning every target (the
  paper's model: a session crosses StateObjects).  Vs headers,
  dependency tokens, commit tracking against piggybacked cuts, RETRY
  backoff and world-line rollback handling are that class's — the same
  one the closed-loop clients drive — so commit latency here means the
  same thing it means there.

Scenarios are declarative dicts validated up front
(:func:`validate_scenario`): a typo'd key or out-of-range value fails
before the run, not as a silent default forty minutes in.  Everything
is driven by one seeded RNG stream, so a scenario re-runs
byte-identically across processes and ``PYTHONHASHSEED`` values.
"""

from __future__ import annotations

import math
import random
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.cluster.messages import BatchIds, batch_request
from repro.cluster.stats import ClusterStats
from repro.core.cuts import DprCut
from repro.core.session import Session, Span
from repro.obs import interpolated_percentile
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.sim.rand import make_rng, spawn

#: ``(arrival_time, count)``: sessions that arrived in the same tick.
Run = Tuple[float, int]


class ScenarioError(ValueError):
    """A scenario dict failed validation; the message names the path."""


#: The reference scenario.  Overrides deep-merge into this, so a
#: scenario dict only states what it changes.
DEFAULT_SCENARIO: Dict[str, Any] = {
    "name": "openloop",
    "arrival": {
        #: "poisson" or "lognormal" (doubly stochastic: each tick's
        #: Poisson intensity is scaled by a unit-mean log-normal draw).
        "process": "poisson",
        #: Offered load, sessions per second.
        "rate": 200_000.0,
        #: Log-normal burstiness (sigma of the intensity multiplier).
        "sigma": 0.6,
        #: Generator wake interval; arrivals within a tick share a
        #: timestamp, so this bounds arrival-time granularity.
        "tick": 1e-3,
    },
    "session": {
        #: Operations one session performs (a single batch's share).
        "ops": 8,
        #: Fraction of those ops that are blind updates.
        "write_fraction": 0.5,
        #: Sessions coalesced into one BatchRequest.
        "coalesce": 64,
        #: Pause after a world-line rollback before re-dispatching.
        "recovery_pause": 20e-3,
        #: Base RETRY backoff and its cap (exponential with jitter).
        "retry_delay": 2e-3,
        "retry_backoff_cap": 0.1,
    },
    "admission": {
        #: Backlog bound of the admission queue, in sessions.
        "queue_capacity": 200_000,
        #: "shed-oldest" or "reject" (see CohortBacklog).
        "policy": "shed-oldest",
        #: Token-bucket throttle in ops/second; 0 disables it.
        "token_rate": 0.0,
        #: Bucket depth in ops; 0 with a rate means one batch's worth.
        "token_burst": 0.0,
        #: Batches in flight per target.
        "max_inflight": 8,
    },
}

_RANGES = {
    ("arrival", "process"): ("poisson", "lognormal"),
    ("admission", "policy"): ("shed-oldest", "reject"),
}
#: Session counts: run-length arithmetic needs real ints.
_INTEGERS = (
    ("session", "ops"), ("session", "coalesce"),
    ("admission", "queue_capacity"), ("admission", "max_inflight"),
)
_POSITIVE = {
    ("arrival", "rate"), ("arrival", "tick"), ("session", "ops"),
    ("session", "coalesce"), ("session", "retry_delay"),
    ("session", "retry_backoff_cap"), ("admission", "queue_capacity"),
    ("admission", "max_inflight"),
}
_NON_NEGATIVE = {
    ("arrival", "sigma"), ("session", "write_fraction"),
    ("session", "recovery_pause"), ("admission", "token_rate"),
    ("admission", "token_burst"),
}


def validate_scenario(overrides: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
    """Deep-merge ``overrides`` into :data:`DEFAULT_SCENARIO`.

    Unknown keys and out-of-range values raise :class:`ScenarioError`
    naming the offending path, so scenario typos fail before the run
    instead of silently meaning the default.
    """
    merged: Dict[str, Any] = {"name": DEFAULT_SCENARIO["name"]}
    for section, defaults in DEFAULT_SCENARIO.items():
        if section != "name":
            merged[section] = dict(defaults)
    for section, value in (overrides or {}).items():
        if section == "name":
            if not isinstance(value, str) or not value:
                raise ScenarioError("scenario name must be a non-empty string")
            merged["name"] = value
            continue
        if section not in merged:
            raise ScenarioError(
                f"unknown scenario section {section!r}; expected one of "
                f"{sorted(k for k in DEFAULT_SCENARIO if k != 'name')}")
        if not isinstance(value, dict):
            raise ScenarioError(f"scenario section {section!r} must be a dict")
        for key, item in value.items():
            if key not in merged[section]:
                raise ScenarioError(
                    f"unknown scenario key {section}.{key}; expected one of "
                    f"{sorted(DEFAULT_SCENARIO[section])}")
            merged[section][key] = item
    for (section, key), allowed in _RANGES.items():
        if merged[section][key] not in allowed:
            raise ScenarioError(
                f"{section}.{key} must be one of {allowed}, "
                f"got {merged[section][key]!r}")
    for section, key in _INTEGERS:
        value = merged[section][key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(
                f"{section}.{key} must be an int, got {value!r}")
    for section, key in _POSITIVE:
        if not merged[section][key] > 0:
            raise ScenarioError(
                f"{section}.{key} must be > 0, got {merged[section][key]!r}")
    for section, key in _NON_NEGATIVE:
        if not merged[section][key] >= 0:
            raise ScenarioError(
                f"{section}.{key} must be >= 0, got {merged[section][key]!r}")
    if merged["session"]["write_fraction"] > 1:
        raise ScenarioError("session.write_fraction must be <= 1")
    return merged


def poisson_draw(rng: random.Random, lam: float) -> int:
    """One Poisson(``lam``) sample.

    Knuth's product method below λ=30; the rounded-normal
    approximation above (the per-tick arrival counts this feeds are in
    the hundreds, where the two are indistinguishable and the exact
    method costs O(λ) uniform draws per tick).
    """
    if lam <= 0:
        return 0
    if lam < 30.0:
        bound = math.exp(-lam)
        product = rng.random()
        count = 0
        while product > bound:
            product *= rng.random()
            count += 1
        return count
    draw = round(rng.gauss(lam, math.sqrt(lam)))
    return draw if draw > 0 else 0


class TokenBucket:
    """Deterministic token-bucket throttle (ops-granular)."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: float, now: float = 0.0):
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.stamp = now

    def refill(self, now: float) -> None:
        if now > self.stamp:
            self.tokens = min(self.burst,
                              self.tokens + (now - self.stamp) * self.rate)
            self.stamp = now

    def take(self, amount: float) -> bool:
        if self.tokens >= amount:
            self.tokens -= amount
            return True
        return False


class SessionTable:
    """The session ledger: offered, live, and the live high-water mark."""

    __slots__ = ("allocated", "live", "peak_live")

    def __init__(self) -> None:
        self.allocated = 0
        self.live = 0
        self.peak_live = 0

    def arrive(self, count: int, turned_away: int) -> None:
        """``count`` sessions arrived and admission turned ``turned_away``
        sessions away to fit them.  A victim is released only after the
        newcomer that displaced it is counted, so a tick that overflows
        the backlog peaks one above where it settles."""
        self.allocated += count
        self.live += count - turned_away
        peak = self.live + 1 if turned_away else self.live
        if peak > self.peak_live:
            self.peak_live = peak

    def release(self, count: int) -> None:
        """``count`` sessions were shed, committed or aborted."""
        self.live -= count


class CohortBacklog:
    """Run-length FIFO admission backlog, bounded in *sessions*.

    What a :class:`repro.sim.queues.BoundedQueue` fed one item per
    session would hold, stored as ``(arrival_time, count)`` runs (the
    property test in tests/test_openloop.py holds the two to the same
    depths, counters and FIFO order).  When an offer would push the
    backlog past ``capacity``, ``"shed-oldest"`` trims the head — down
    to the newcomers themselves when one offer exceeds the capacity —
    and ``"reject"`` truncates the newcomers.  The tracer hears once
    per operation: the post-operation depth under ``queue.<name>`` and
    the victim count under ``queue.<name>.shed`` / ``.rejected``.
    """

    __slots__ = ("env", "capacity", "policy", "shed_items",
                 "rejected_items", "_runs", "_depth", "_depth_key")

    def __init__(self, env: Environment, capacity: int, name: str,
                 policy: str = "shed-oldest"):
        self.env = env
        self.capacity = capacity
        self.policy = policy
        self.shed_items = 0
        self.rejected_items = 0
        self._runs: deque = deque()
        self._depth = 0
        self._depth_key = "queue." + name

    def __len__(self) -> int:
        return self._depth

    def offer(self, runs: Sequence[Run]) -> int:
        """Queue ``runs`` in order; returns how many sessions the
        overload policy turned away to fit them."""
        offered = sum(count for _arrival, count in runs)
        if not offered:
            return 0  # nothing to report: the tracer must hear nothing
        over = max(0, self._depth + offered - self.capacity)
        tracer = self.env.tracer
        if over and self.policy == "reject":
            self.rejected_items += over
            if tracer is not None:
                tracer.counter(self._depth_key + ".rejected", over)
            self._runs.extend(_split(deque(runs), offered - over))
        else:
            self._runs.extend(runs)
            if over:
                self.shed_items += over
                if tracer is not None:
                    tracer.counter(self._depth_key + ".shed", over)
                _split(self._runs, over)
        if offered > over:  # the depth moved
            self._depth += offered - over
            if tracer is not None:
                tracer.queue_depth(self._depth_key, self._depth)
        return over

    def take(self, count: int) -> Tuple[Run, ...]:
        """Dequeue the ``count`` oldest sessions (``count <= len``)."""
        self._depth -= count
        tracer = self.env.tracer
        if tracer is not None and count:
            tracer.queue_depth(self._depth_key, self._depth)
        return _split(self._runs, count)


def _split(runs: deque, count: int) -> Tuple[Run, ...]:
    """Pop the ``count`` oldest sessions off ``runs``, splitting the run
    the boundary falls in."""
    head = []
    while count:
        arrival, size = runs[0]
        if size <= count:
            head.append(runs.popleft())
            count -= size
        else:
            runs[0] = (arrival, size - count)
            head.append((arrival, count))
            count = 0
    return tuple(head)


def _ack_order(span: Span):
    return span.tag[0]


class OpenLoopDriver:
    """Open-loop session generator + admission stack for one cluster.

    Registers one network endpoint and drives one DPR session across
    every target at batch granularity; what stays here is arrivals,
    admission, the session ledger and exact latencies.  Attach to a
    cluster built with ``n_client_machines=0`` via
    :func:`attach_open_loop`.
    """

    def __init__(
        self,
        env: Environment,
        net: Network,
        address: str,
        targets: List[str],
        scenario: Optional[Dict[str, Any]] = None,
        stats: Optional[ClusterStats] = None,
        rng: Optional[random.Random] = None,
    ):
        if not targets:
            raise ValueError("open-loop driver needs at least one target")
        self.env = env
        self.net = net
        self.address = address
        self.targets = list(targets)
        self.scenario = validate_scenario(scenario)
        self.stats = stats if stats is not None else ClusterStats()
        self._rng = make_rng(rng)
        self.table = SessionTable()

        session = self.scenario["session"]
        admission = self.scenario["admission"]
        self._ops: int = session["ops"]
        self._coalesce: int = session["coalesce"]
        self._write_count = round(self._ops * session["write_fraction"])
        self.recovery_pause: float = session["recovery_pause"]
        self.retry_delay: float = session["retry_delay"]
        self.retry_backoff_cap: float = session["retry_backoff_cap"]
        self._max_inflight: int = admission["max_inflight"]

        #: The admission backlog: runs of sessions awaiting dispatch.
        self.admit = CohortBacklog(
            env, admission["queue_capacity"], name=f"admit:{address}",
            policy=admission["policy"])
        if admission["token_rate"] > 0:
            burst = admission["token_burst"] or self._coalesce * self._ops
            self.bucket: Optional[TokenBucket] = TokenBucket(
                admission["token_rate"], burst, env.now)
        else:
            self.bucket = None

        #: The DPR session: Vs, deps, world-line, commit window, backoff.
        self.session = Session(address)
        self._batch_ids = BatchIds()
        #: Batches awaiting a reply, per target.  The session's window
        #: is keyed by batch id; each span's ``tag`` is the batch's
        #: (target index, runs) until it is acknowledged, then
        #: (ack order, runs).
        self._inflight = [0] * len(self.targets)
        self._rr = 0
        #: object id -> rank by first acknowledgement, and acks so far:
        #: commit latencies are recorded per StateObject in ack order.
        #: (The shared ``ClusterStats`` reservoir samples, so the order
        #: it is fed in is part of the pinned BENCH output.)
        self._ack_rank: Dict[str, int] = {}
        self._acks = 0

        #: Exact per-session commit latencies (the SLO report computes
        #: exact percentiles; the shared stats reservoir still samples).
        self.commit_latencies: List[float] = []
        self.completed_sessions = 0
        self.committed_sessions = 0
        self.aborted_sessions = 0

        self.running = True
        self.endpoint = net.register(address)
        self.endpoint.inbox.set_handler(self._on_reply)
        env.process(self._arrival_pump(), name=f"openloop:{address}")

    # -- generating -------------------------------------------------------------

    def _arrival_pump(self):
        """Sample arrivals each tick, admit them, and dispatch."""
        env = self.env
        arrival = self.scenario["arrival"]
        tick: float = arrival["tick"]
        lam = arrival["rate"] * tick
        lognormal = arrival["process"] == "lognormal"
        sigma: float = arrival["sigma"]
        mu = -0.5 * sigma * sigma  # unit-mean intensity multiplier
        rng = self._rng
        while self.running:
            if lognormal:
                count = poisson_draw(rng, lam * rng.lognormvariate(mu, sigma))
            else:
                count = poisson_draw(rng, lam)
            self.table.arrive(count,
                              self.admit.offer(((env.now, count),)))
            self._dispatch()
            yield tick
            if not self.running:
                break

    def _dispatch(self) -> None:
        """Drain the admission queue into per-target batches.

        Round-robin over targets with in-flight room, up to
        ``coalesce`` sessions per batch, gated by the token bucket.
        """
        env = self.env
        now = env.now
        if now < self.session.paused_until:
            return
        admit = self.admit
        if not len(admit):
            return
        bucket = self.bucket
        if bucket is not None:
            bucket.refill(now)
        ops = self._ops
        coalesce = self._coalesce
        max_inflight = self._max_inflight
        inflight = self._inflight
        n_targets = len(self.targets)
        take = admit.take
        send = self.net.send
        address = self.address
        while len(admit):
            # Next target with in-flight room, starting at the cursor.
            target_idx = -1
            for step in range(n_targets):
                candidate = (self._rr + step) % n_targets
                if inflight[candidate] < max_inflight:
                    target_idx = candidate
                    break
            if target_idx < 0:
                return  # every target is at its cap; replies re-dispatch
            count = min(coalesce, len(admit))
            if bucket is not None:
                affordable = int(bucket.tokens // ops)
                if affordable < count:
                    count = affordable
                if count <= 0:
                    return  # throttled; the next tick refills
                bucket.take(count * ops)
            self._rr = (target_idx + 1) % n_targets
            inflight[target_idx] += 1
            self._send_batch(target_idx, take(count), count, now, send,
                             address)

    def _send_batch(self, target_idx: int, runs: Tuple[Run, ...],
                    count: int, now: float, send, address: str) -> None:
        target = self.targets[target_idx]
        op_count = count * self._ops
        batch_id = self._batch_ids.allocate()
        span = self.session.issue(target, now, op_count, batch_id,
                                  (target_idx, runs))
        send(address, target,
             batch_request(address, span, batch_id, address,
                           count * self._write_count),
             size_ops=op_count)

    # -- receiving --------------------------------------------------------------

    def _on_reply(self, message) -> None:
        """Inbox sink handler: fold one reply into the driver."""
        reply = message.payload
        now = self.env.now
        status = reply.status
        if status == "rolled_back":
            self._handle_rollback(reply.world_line, reply.cut, now)
            return
        span = self.session.window.get(reply.batch_id)
        if span is None or span.version is not None:
            return  # straggler from before a rollback, or a duplicate
        target_idx, runs = span.tag
        self._inflight[target_idx] -= 1
        if status == "ok":
            self._complete(reply, span, now)
        else:
            # "retry" / "not_owner": the ops never ran.  Back off and
            # push the sessions back through admission — under pressure
            # they compete with fresh arrivals and may be shed, which
            # is exactly what an admission stack is for.
            self.session.drop(span.key)
            self.session.backoff(now, self.retry_delay,
                                 self.retry_backoff_cap, self._rng.random())
            self.table.release(self.admit.offer(runs))
        self._dispatch()

    def _complete(self, reply, span: Span, now: float) -> None:
        runs = span.tag[1]
        ranks = self._ack_rank
        self._acks += 1
        span.tag = ((ranks.setdefault(reply.object_id, len(ranks)),
                     self._acks), runs)
        retired = self.session.absorb(span.key, reply.version, now,
                                      reply.object_id, reply.cut)
        op_latency = self.stats.operation_latency.add_run
        for arrival, count in runs:
            op_latency(now - arrival, count)
        self.completed_sessions += span.op_count // self._ops
        self.stats.completed.add(now, span.op_count)
        if retired:
            self._commit(retired, now)

    def _commit(self, retired: Sequence[Span], now: float) -> None:
        """Release the sessions of committed batches; their commit
        latency is arrival-to-cut, the open-loop number a knee curve
        plots."""
        lat_extend = self.commit_latencies.extend
        commit_lat = self.stats.commit_latency.add_run
        committed = self.stats.committed
        sessions = 0
        for span in sorted(retired, key=_ack_order):
            for arrival, count in span.tag[1]:
                latency = now - arrival
                lat_extend([latency] * count)
                commit_lat(latency, count)
            committed.add(now, span.op_count)
            sessions += span.op_count // self._ops
        self.table.release(sessions)
        self.committed_sessions += sessions

    def _handle_rollback(self, new_world_line: int, cut: Optional[DprCut],
                         now: float) -> None:
        """World-line bump: commit what the cut covers, abort the rest,
        pause dispatch for the recovery window."""
        session = self.session
        error = session.observe_failure(new_world_line, cut, now)
        if error is None:
            return  # duplicate notification
        session.acknowledge_rollback()
        self._commit(error.committed, now)
        aborted = self.stats.aborted
        sessions = 0
        for span in error.aborted:
            aborted.add(now, span.op_count)
            sessions += span.op_count // self._ops
        self.table.release(sessions)
        self.aborted_sessions += sessions
        # In-flight batches died with the old world-line; their
        # straggling replies describe rolled-back effects.
        self._inflight = [0] * len(self.targets)
        session.paused_until = now + self.recovery_pause

    # -- control ----------------------------------------------------------------

    def stop(self) -> None:
        self.running = False


def slo_report(driver: OpenLoopDriver) -> Dict[str, Any]:
    """Summarize a finished run for the knee curve.

    Percentiles are exact (computed over *every* commit latency, not a
    reservoir sample): an open-loop p999 from 1k sampled points is
    noise, and exactness is what makes the report byte-identical
    across reruns.
    """
    ordered = sorted(driver.commit_latencies)
    if ordered:
        latency = {
            "count": len(ordered),
            "p50": interpolated_percentile(ordered, 50),
            "p99": interpolated_percentile(ordered, 99),
            "p999": interpolated_percentile(ordered, 99.9),
        }
    else:
        latency = {"count": 0, "p50": 0.0, "p99": 0.0, "p999": 0.0}
    admit = driver.admit
    return {
        "scenario": driver.scenario["name"],
        "offered_sessions": driver.table.allocated,
        "shed_sessions": admit.shed_items + admit.rejected_items,
        "completed_sessions": driver.completed_sessions,
        "committed_sessions": driver.committed_sessions,
        "aborted_sessions": driver.aborted_sessions,
        "live_sessions": driver.table.live,
        "peak_live_sessions": driver.table.peak_live,
        "commit_latency": latency,
    }


def attach_open_loop(cluster, scenario: Optional[Dict[str, Any]] = None,
                     address: str = "openloop-0") -> OpenLoopDriver:
    """Attach a driver to a cluster built with ``n_client_machines=0``.

    Targets are the cluster shell's ``client_targets`` (one address
    per shard).  The driver's RNG is spawned from the cluster's seed
    stream, so one config seed still reproduces the whole run.
    """
    return OpenLoopDriver(
        cluster.env, cluster.net, address, list(cluster.client_targets),
        scenario=scenario, stats=cluster.stats,
        rng=spawn(cluster._rng, address))
