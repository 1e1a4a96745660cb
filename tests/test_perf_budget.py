"""Deterministic kernel budgets + byte-identity anchors for the array core.

Two families of regression guard live here:

**Budgets** hold the array-structured kernel (docs/KERNEL.md) to the
numbers that make it fast: the dispatch count of the fig10 smoke cell
is exactly reproducible and pinned; the heap and the live-handle pool
must scale with in-flight work (windows x clients), never run length;
and the free-list must be recycling nearly every handle (a reuse-rate
collapse means handles are leaking and the arrays are growing without
bound).  The open-loop driver gets the same treatment: its count of
Python calls (exact per seed) must track batches served, not sessions
offered.

**Byte-identity anchors** pin sha256 digests of full trace streams
captured *before* the array-core refactor landed.  The refactor's
contract (docs/PERFORMANCE.md) is that every fast path consumes exactly
one kernel sequence number where the Event-based form consumed one, so
event order, RNG draw order, and therefore every simulated result are
bit-for-bit unchanged.  (The open-loop anchors were captured the same
way, before the cohort-granular data path replaced the per-session
one.)  These tests hold future kernel work to the same
contract: if one fails, the change reordered events — compare
per-counter with Tracer.counters and per-phase with phase_summary() to
localize, and only re-pin if the reordering was an intentional protocol
change, never to absorb an accidental one.

If a *budget* fails after an intentional protocol change (more messages
per batch, a new background loop), re-measure and move the budget with
the change — the point is that event-count growth is a *decision*,
never an accident of a refactor.
"""

import cProfile
import functools
import hashlib
import json
import pstats
import tracemalloc

import pytest

from repro.bench.harness import run_dfaster_experiment
from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig
from repro.obs import Tracer
from repro.sim.kernel import Environment
from repro.sim.network import Network
from repro.workloads import YCSB_A, attach_open_loop, slo_report

#: Exact dispatch count of the smoke cell below, as of the array-core
#: refactor.  (It was 13_679 before: converting six message-router
#: generators to sink handlers removed their six start events; every
#: per-message event is unchanged.)  The assertion allows 5% headroom so
#: byte-level-neutral refactors that legitimately reshuffle a few
#: control events (e.g. a changed shutdown order) don't trip it.
SMOKE_DISPATCH_BASELINE = 13_673
SMOKE_DISPATCH_BUDGET = int(SMOKE_DISPATCH_BASELINE * 1.05)

#: The heap should stay shallow: depth scales with in-flight work
#: (windows x clients), not with run length.
SMOKE_HEAP_DEPTH_BUDGET = 160

#: The live-handle pool is bounded by heap depth plus the entry being
#: dispatched, so the same in-flight-work bound applies (measured: 81
#: for this cell).  Growth here with run length means handles leak.
SMOKE_LIVE_HANDLE_BUDGET = 160

#: Nearly every schedule should recycle a freed handle once the pool
#: warms up (measured: 99.4% for this cell).
SMOKE_FREE_LIST_REUSE_MIN = 0.95

#: sha256 of Tracer.serialize() for the smoke cell, captured on the
#: object-per-event kernel immediately before the array core replaced
#: it.  Every span, counter bucket, and gauge in emission order — if
#: the array core (or any future kernel change) perturbs event order
#: or RNG draw order, this digest moves.
SMOKE_TRACE_SHA = \
    "89d4b77b6523a44f14afb7462acf80a6f2fb524577876779b9f868685adefff8"

#: What one recorded event may cost the tracer, by ``tracemalloc`` (so
#: no wall clock and no ``ru_maxrss``).  The columnar log spends three
#: words — two C doubles and a 4-byte shape code, 20 B — plus the
#: arrays' growth slack; one tuple per event spent ~345 B (three
#: GC-tracked tuples, two boxed floats and a label string).
TRACER_BYTES_PER_EVENT_BUDGET = 32

#: Pre-refactor digests of the full chaos and replication scenario
#: fingerprints from tests/test_determinism_hashseed.py — protocol
#: outcomes (commits, aborts, injected faults, world-lines, cuts) plus
#: the serialized trace, across crash/recovery and promotion paths the
#: smoke cell never exercises.
CHAOS_SCENARIO_SHA = \
    "e7276d2772d7bd0f4c515a6e15f8195cffde745e687b0fb21c9b0f1f39a5d760"
REPLICATION_SCENARIO_SHA = \
    "8475dcd0c7d78192fc98312dd8fdd70fe2b183decde64e356518f18985c48fee"

#: Open-loop byte-identity anchors, captured on the per-session data
#: path (a handle per session through ``BoundedQueue``) immediately
#: before the cohort-granular one replaced it.  BENCH_openloop and the
#: ledger digest only reach Poisson + shed-oldest + no failures; these
#: pin the rest: both overload policies, a backlog smaller than one
#: tick's arrivals, bursty arrivals behind the token bucket, rollbacks
#: (nested, and after a real crash), D-Redis, and refused batches
#: re-entering admission.  Rows: sha256, cluster, scenario, run kwargs.
_D_FASTER = dict(n_workers=2, vcpus=4)
_D_FASTER_CKPT = dict(_D_FASTER, checkpoint_interval=0.05)


def _overload(rate, capacity, policy="shed-oldest"):
    return {"arrival": {"rate": rate}, "session": {"coalesce": 256},
            "admission": {"queue_capacity": capacity, "policy": policy,
                          "max_inflight": 16}}


OPENLOOP_ANCHORS = {
    "reject": (
        "dcf42dc75d4551dba58123e3ffc91121d428dc3a9e9772b617e4b854c6eda76a",
        _D_FASTER, _overload(2e6, 50_000, "reject"), {}),
    "sub-tick-queue-shed-oldest": (
        "40e0d7a6a0801402455aa233d8fc8897436e3f6f24a9b850938b0c6d12b6e07d",
        _D_FASTER, _overload(2e6, 700), {}),
    "sub-tick-queue-reject": (
        "db5edd6f8c0ff2e22fa9303fc8da77dcd52219269274e302f388204e9a5fd2b2",
        _D_FASTER, _overload(2e6, 700, "reject"), {}),
    "lognormal-token-bucket": (
        "4ae8c5226ea366c7e41324645e5e2201195b696952e3c9d5b55d5fb6cace7f6c",
        _D_FASTER,
        {"arrival": {"process": "lognormal", "rate": 500e3, "sigma": 0.6},
         "session": {"coalesce": 256},
         "admission": {"token_rate": 4e6, "max_inflight": 16}}, {}),
    "failures-shed-oldest": (
        "cac16d4fb0d66fed01054b819717601d6d5682d3a2ded36a3c62b9a3ca8e4ea0",
        _D_FASTER_CKPT, _overload(1.5e6, 20_000),
        dict(duration=0.6, failures=(0.2, 0.4))),
    "nested-failures-reject": (
        "883550527c6784a0b9bf73f0babd1a16d8e63c577ce390376749bd16a03b11ff",
        _D_FASTER_CKPT, _overload(1.5e6, 20_000, "reject"),
        dict(duration=0.6, failures=(0.2, 0.21))),
    "crash-light-load": (
        "182af79780865bba9692df558bd83c7e22b9e5ef3bb9c0ff304277c9d06c8476",
        dict(n_workers=3, vcpus=2, checkpoint_interval=0.05),
        {"arrival": {"rate": 50e3},
         "admission": {"queue_capacity": 20_000}},
        dict(duration=1.0, crash_at=0.3)),
    "d-redis-overload": (
        "6aeeff5280485266abb211b1d75c560ca67ba5687f75a7333c4db686c218094a",
        dict(n_shards=2, checkpoint_interval=0.05),
        _overload(2e6, 50_000), {}),
    "refused-batches-shed-oldest": (
        "2308664914faccd2351597f21b5c5f10be009a2a06ee2b50f933888248d52839",
        _D_FASTER, _overload(2e6, 700), dict(refuse_every=5)),
    "refused-batches-reject": (
        "4d751c72b7845d57f9d9166a3dc65b34e45791935352e0154c87dcad5e363414",
        _D_FASTER, _overload(2e6, 50_000, "reject"), dict(refuse_every=5)),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_smoke() -> Tracer:
    tracer = Tracer()
    run_dfaster_experiment(
        "fig10 smoke", duration=0.1, warmup=0.05,
        n_workers=2, n_client_machines=2, workload=YCSB_A,
        tracer=tracer)
    return tracer


def _run_smoke_cluster():
    """The same smoke cell, built directly so the Environment (and its
    array-core introspection) stays reachable after the run."""
    tracer = Tracer()
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, n_client_machines=2, workload=YCSB_A, tracer=tracer))
    cluster.run(0.1, warmup=0.05)
    return cluster, tracer


def _openloop_fingerprint(cluster_kwargs, scenario, duration=0.4,
                          failures=(), crash_at=None, refuse_every=0) -> str:
    """Everything an open-loop run reports, hashed: the SLO report,
    both shared reservoirs, the three series, every exact commit
    latency, the trace stream and the tracer's counters and gauges."""
    tracer = Tracer()
    if "n_shards" in cluster_kwargs:
        cluster = DRedisCluster(DRedisConfig(
            n_client_machines=0, seed=7, tracer=tracer, **cluster_kwargs))
    else:
        cluster = DFasterCluster(DFasterConfig(
            n_client_machines=0, seed=7, tracer=tracer, **cluster_kwargs))
    for at_time in failures:
        cluster.schedule_failure(at_time)
    if crash_at is not None:
        cluster.schedule_crash(worker_index=1, at_time=crash_at)
    driver = attach_open_loop(cluster, scenario=scenario)
    if refuse_every:
        # No seeded run makes a server answer RETRY (the recovery pause
        # outlasts the rollback), so turn every Nth "ok" into one: the
        # batch's sessions go back through admission under overload.
        served = [0]

        def refusing(message):
            reply = message.payload
            if reply.status == "ok":
                served[0] += 1
                if served[0] % refuse_every == 0:
                    reply.status = "retry"
            driver._on_reply(message)

        driver.endpoint.inbox.set_handler(refusing)
    stats = cluster.run(duration, warmup=0.1)
    return _sha(json.dumps([
        slo_report(driver),
        stats.operation_latency.summary(), stats.commit_latency.summary(),
        stats.completed.series(), stats.committed.series(),
        stats.aborted.series(), driver.commit_latencies,
        tracer.serialize(), sorted(tracer.counters.items()),
        sorted(tracer.queue_high_watermarks.items()),
        sorted(tracer.queue_depths.items()),
    ]))


class TestKernelEventBudget:
    def test_dispatch_count_within_budget(self):
        tracer = _run_smoke()
        dispatched = tracer.counters["kernel.dispatched"]
        # A collapsed counter (or a tracer that stopped seeing the
        # kernel) would pass a bare <=; require the real workload too.
        assert dispatched > SMOKE_DISPATCH_BASELINE * 0.5
        assert dispatched <= SMOKE_DISPATCH_BUDGET, (
            f"kernel dispatched {dispatched:.0f} events, budget is "
            f"{SMOKE_DISPATCH_BUDGET} — see tests/test_perf_budget.py "
            f"for how to move the budget deliberately")

    def test_dispatch_count_is_deterministic(self):
        first = _run_smoke().counters["kernel.dispatched"]
        second = _run_smoke().counters["kernel.dispatched"]
        assert first == second

    def test_heap_depth_within_budget(self):
        tracer = _run_smoke()
        depth = tracer.queue_high_watermarks["kernel.heap"]
        assert 0 < depth <= SMOKE_HEAP_DEPTH_BUDGET


class TestArrayCoreBudget:
    """The array core's handle pool must track in-flight work."""

    def test_live_handle_high_watermark(self):
        cluster, tracer = _run_smoke_cluster()
        env = cluster.env
        watermark = env.live_handle_high_watermark
        # Guard both directions: zero means the core stopped using
        # handles (introspection went stale), growth past the budget
        # means handles leak instead of recycling.
        assert 0 < watermark <= SMOKE_LIVE_HANDLE_BUDGET, (
            f"live-handle high-watermark {watermark} outside "
            f"(0, {SMOKE_LIVE_HANDLE_BUDGET}] — the free-list is "
            f"leaking handles if this grew")
        # The pool is bounded by heap depth + the entry in dispatch.
        heap_peak = tracer.queue_high_watermarks["kernel.heap"]
        assert watermark <= heap_peak + 1

    def test_free_list_reuse_rate(self):
        cluster, _ = _run_smoke_cluster()
        env = cluster.env
        assert env.handles_scheduled > SMOKE_DISPATCH_BASELINE * 0.5
        assert env.free_list_reuse_rate >= SMOKE_FREE_LIST_REUSE_MIN, (
            f"free-list reuse rate {env.free_list_reuse_rate:.4f} below "
            f"{SMOKE_FREE_LIST_REUSE_MIN} — schedules are growing the "
            f"arrays instead of recycling handles")


class TestByteIdentity:
    """Pre-refactor trace digests must keep matching the shipped core."""

    def test_smoke_trace_fingerprint_unchanged(self):
        tracer = _run_smoke()
        assert _sha(tracer.serialize()) == SMOKE_TRACE_SHA, (
            "fig10-smoke trace stream diverged from the pre-array-core "
            "capture: a kernel fast path is consuming a different number "
            "of sequence numbers (see docs/PERFORMANCE.md, rule 1)")

    def test_chaos_scenario_fingerprint_unchanged(self):
        from test_determinism_hashseed import CHAOS_SCENARIO, run_with_hashseed
        assert _sha(run_with_hashseed(0, CHAOS_SCENARIO)) == \
            CHAOS_SCENARIO_SHA, (
            "chaos-scenario fingerprint diverged from the pre-array-core "
            "capture: event order changed on the crash/recovery path")

    def test_replication_scenario_fingerprint_unchanged(self):
        from test_determinism_hashseed import (
            REPLICATION_SCENARIO, run_with_hashseed)
        assert _sha(run_with_hashseed(0, REPLICATION_SCENARIO)) == \
            REPLICATION_SCENARIO_SHA, (
            "replication-scenario fingerprint diverged from the "
            "pre-array-core capture: event order changed on the "
            "chain/promotion path")


class TestTracerMemoryBudget:
    """A fig10 sweep keeps 391k events alive until its artifact is
    built; what an event costs is what the sweep's peak RSS is made of
    (docs/OBSERVABILITY.md, "Storage layout")."""

    def test_bytes_retained_per_event(self):
        events = 50_000
        tracemalloc.start()
        try:
            # Small reservoirs: this prices the event log, not the
            # phase samples (8 B + a float each, bounded per phase).
            tracer = Tracer(sample_capacity=64)
            before, _ = tracemalloc.get_traced_memory()
            for index in range(events):
                tracer.span("phase%d" % (index % 4), index * 1e-6,
                            1e-6 + index * 1e-9,
                            worker="w%d" % (index // 4 % 2))
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tracer.events) == events
        assert len({event[1:3] + event[4:] for event in tracer.events}) == 8
        per_event = (after - before) / events
        assert per_event <= TRACER_BYTES_PER_EVENT_BUDGET, (
            f"the tracer retains {per_event:.0f} B per recorded event, "
            f"budget is {TRACER_BYTES_PER_EVENT_BUDGET} B")

    def test_one_label_string_per_link(self):
        """``Network._deliver`` labels a delivery with its link; the
        label comes from a per-link memo, so a run keeps one string per
        link alive however many messages cross it."""
        tracer = Tracer()
        env = Environment(tracer=tracer)
        net = Network(env)
        names = ["client-0", "client-1", "worker-0", "worker-1", "worker-2"]
        for name in names:
            net.register(name).inbox.set_handler(lambda message: None)
        for index in range(3000):
            net.send(names[index % 2], names[2 + index % 3], index)
        env.run(until=1.0)
        deliveries = [event for event in tracer.events
                      if event[2] == "net.delivery"]
        assert len(deliveries) == 3000
        links = {labels[0][1] for *_, labels in deliveries}
        assert links == {f"client-{c}>worker-{w}"
                         for c in range(2) for w in range(3)}
        assert len({id(labels[0][1]) for *_, labels in deliveries}) == 6


class TestOpenLoopByteIdentity:
    """The cohort-granular open-loop data path must report exactly
    what the per-session one did (docs/OPENLOOP.md)."""

    @pytest.mark.parametrize("case", sorted(OPENLOOP_ANCHORS))
    def test_fingerprint_unchanged(self, case):
        sha, cluster_kwargs, scenario, run_kwargs = OPENLOOP_ANCHORS[case]
        assert _openloop_fingerprint(
            cluster_kwargs, scenario, **run_kwargs) == sha, (
            f"open-loop {case} run diverged from the per-session capture: "
            f"diff slo_report, then Tracer.counters / queue gauges, then "
            f"the reservoirs (one randrange per observation, in order)")


@functools.lru_cache(maxsize=None)
def _profiled_cell(rate: float) -> pstats.Stats:
    """cProfile of one overloaded open-loop cell (call counts and
    caller edges are exact per seed)."""
    cluster = DFasterCluster(DFasterConfig(
        n_client_machines=0, seed=7, **_D_FASTER))
    attach_open_loop(cluster, scenario=_overload(rate, 50_000))
    profiler = cProfile.Profile()
    profiler.enable()
    cluster.run(0.3, warmup=0.1)
    profiler.disable()
    return pstats.Stats(profiler)


def _repro_calls(rate: float) -> int:
    """Python-level calls into ``repro`` for that cell."""
    return sum(calls for (path, _line, _name), (_cc, calls, *_rest)
               in _profiled_cell(rate).stats.items() if "/repro/" in path)


class TestOpenLoopScaling:
    def test_cost_scales_with_batches_not_offered_sessions(self):
        # A saturated cluster serves the same batches whatever is
        # offered, so 4x the arrivals must not be 4x the Python steps.
        # (Per-session path: 1,987,905 vs 6,488,239 calls, 3.26x.)
        base, heavy = _repro_calls(1e6), _repro_calls(4e6)
        assert base > 10_000  # the profiler saw the run
        assert heavy <= 1.1 * base, (base, heavy)

    def test_an_observation_enters_no_frame_of_random(self):
        # The samplers draw ``getrandbits`` (C) directly; going through
        # ``randrange`` costs two Python frames of random.py per
        # observation once a reservoir is full (docs/PERFORMANCE.md
        # rule 3 -- the property tests pin that the words are the same).
        samplers = ("/repro/cluster/stats.py", "/repro/obs/tracer.py")
        stats = _profiled_cell(1e6).stats
        assert any(path.endswith(samplers[0]) for path, _, _ in stats)
        entered = {
            (caller[2], name): edge[0]
            for (path, _line, name), (*_, callers) in stats.items()
            if path.endswith("/random.py")
            for caller, edge in callers.items()
            if caller[0].endswith(samplers)}
        assert not entered, entered
