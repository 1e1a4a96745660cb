"""The observability layer: deterministic, pure, and byte-stable.

Three layers of coverage.  Unit tests pin the tracer primitives
(counters, gauges, watermarks, spans in all four shapes, the event cap)
and the percentile/merge math that BENCH artifacts depend on.  The
integration test drives a traced D-FASTER run through a failure and
checks every instrumented phase actually fires.  The determinism tests
are the contract from ISSUE 3: a traced run's event stream is
byte-identical across ``PYTHONHASHSEED`` values, and enabling tracing
does not perturb the protocol (same stats with the tracer on or off).
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import run_dfaster_experiment
from repro.obs import (
    PhaseStats,
    Tracer,
    interpolated_percentile,
    merge_phase_stats,
    weighted_sample_merge,
)

from tests.test_determinism_hashseed import run_with_hashseed
from tests.test_openloop import RandrangeReservoir


class TestInterpolatedPercentile:
    def test_empty_and_singleton(self):
        assert interpolated_percentile([], 50) == 0.0
        assert interpolated_percentile([7.0], 0) == 7.0
        assert interpolated_percentile([7.0], 100) == 7.0

    def test_boundaries_are_exact(self):
        ordered = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert interpolated_percentile(ordered, 0) == 1.0
        assert interpolated_percentile(ordered, 100) == 5.0
        # q=50 on five samples lands exactly on rank 2.
        assert interpolated_percentile(ordered, 50) == 3.0
        assert interpolated_percentile(ordered, 25) == 2.0

    def test_interpolates_between_ranks(self):
        ordered = [0.0, 10.0]
        assert interpolated_percentile(ordered, 50) == 5.0
        assert interpolated_percentile(ordered, 90) == pytest.approx(9.0)

    def test_exact_on_dense_grid(self):
        ordered = [float(v) for v in range(101)]
        for q in (0, 1, 25, 50, 75, 99, 100):
            assert interpolated_percentile(ordered, q) == float(q)


class TestPhaseStats:
    def test_moments(self):
        stats = PhaseStats()
        rng = random.Random(0)
        for value in (3.0, 1.0, 2.0):
            stats.add(value, rng)
        summary = stats.summary()
        assert summary["count"] == 3
        assert summary["total"] == 6.0
        assert summary["mean"] == 2.0
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["p50"] == 2.0

    def test_percentile_is_the_summary_quantile(self):
        """``percentile`` and ``summary`` read one sort of the reservoir
        (``percentiles``), so they cannot disagree."""
        stats, rng = PhaseStats(capacity=32), random.Random(1)
        for _ in range(500):
            stats.add(rng.expovariate(3.0), rng)
        summary = stats.summary()
        ordered = sorted(stats.samples)
        for q in (50, 95, 99):
            assert stats.percentile(q) == summary[f"p{q}"]
            assert stats.percentile(q) == interpolated_percentile(ordered, q)
        assert stats.percentiles(0, 100) == [ordered[0], ordered[-1]]
        assert PhaseStats().percentiles(50, 99) == [0.0, 0.0]

    def test_empty_summary(self):
        assert PhaseStats().summary()["count"] == 0

    def test_reservoir_caps_samples_not_moments(self):
        stats = PhaseStats(capacity=16)
        rng = random.Random(0)
        for value in range(1000):
            stats.add(float(value), rng)
        assert len(stats.samples) == 16
        assert stats.count == 1000
        assert stats.summary()["max"] == 999.0

    def test_merge_is_exact_under_capacity(self):
        rng = random.Random(0)
        a, b = PhaseStats(capacity=100), PhaseStats(capacity=100)
        for value in (1.0, 2.0):
            a.add(value, rng)
        for value in (10.0, 20.0):
            b.add(value, rng)
        a.merge(b, rng)
        summary = a.summary()
        assert summary["count"] == 4
        assert summary["total"] == 33.0
        assert summary["min"] == 1.0 and summary["max"] == 20.0
        assert sorted(a.samples) == [1.0, 2.0, 10.0, 20.0]
        # The merged-from side is untouched.
        assert b.count == 2 and sorted(b.samples) == [10.0, 20.0]

    def test_merge_weights_by_observation_count(self):
        """A stream with 100x the observations should dominate the
        merged reservoir roughly 100:1, not 1:1 (the re-sampling bias
        this merge exists to avoid)."""
        rng = random.Random(7)
        big, small = PhaseStats(capacity=50), PhaseStats(capacity=50)
        for _ in range(5000):
            big.add(100.0, rng)
        for _ in range(50):
            small.add(1.0, rng)
        big.merge(small, rng)
        assert big.count == 5050
        assert len(big.samples) == 50
        share_small = sum(1 for s in big.samples if s == 1.0) / 50
        assert share_small < 0.15  # unweighted concat would give 0.5


class TestWeightedSampleMerge:
    def test_respects_capacity_and_strata(self):
        rng = random.Random(3)
        merged = weighted_sample_merge(
            [1.0] * 10, 10, [2.0] * 10, 10, 8, rng)
        assert len(merged) == 8
        assert set(merged) <= {1.0, 2.0}

    def test_empty_strata(self):
        rng = random.Random(3)
        assert weighted_sample_merge([], 0, [], 0, 8, rng) == []
        assert sorted(weighted_sample_merge([5.0], 1, [], 0, 8, rng)) == [5.0]

    @pytest.mark.parametrize("count", [float("inf"), float("nan")])
    def test_choosing_an_empty_stratum_raises(self, count):
        # A non-finite weight makes the stratum test pick the exhausted
        # side; that must stay the ValueError ``randrange(0)`` raised,
        # not a rejection loop spinning on ``getrandbits(0) >= 0``.
        with pytest.raises(ValueError):
            weighted_sample_merge([1.0], count, [], 0, 1, random.Random(3))


def randrange_sample_merge(mine, mine_count, theirs, theirs_count,
                           capacity, rng):
    """``weighted_sample_merge`` with its ranks drawn by
    ``rng.randrange``: the reference the inlined rejection loop must
    stay stream-exact with (docs/PERFORMANCE.md rule 3)."""
    weight_mine = mine_count / len(mine) if mine else 0.0
    weight_theirs = theirs_count / len(theirs) if theirs else 0.0
    picked = []
    for _ in range(capacity):
        total_mine = len(mine) * weight_mine
        remaining = total_mine + len(theirs) * weight_theirs
        if remaining <= 0.0:
            break
        if rng.random() * remaining < total_mine:
            picked.append(mine.pop(rng.randrange(len(mine))))
        else:
            picked.append(theirs.pop(rng.randrange(len(theirs))))
    return picked


class TestSamplersDrawTheRandrangeStream:
    """The tracer's samplers write ``randrange(n)`` out as its
    rejection loop over ``getrandbits``; CI runs this on 3.9 and 3.12,
    so a stdlib change to the bounded draw fails here, loudly, instead
    of moving every percentile."""

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 64), seed=st.integers(0, 2 ** 32),
           values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=300))
    def test_phase_stats_add(self, capacity, seed, values):
        stats, rng = PhaseStats(capacity), random.Random(seed)
        model = RandrangeReservoir(capacity, seed)
        for value in values:
            stats.add(value, rng)
            model.add(value)
            assert stats.samples == model.samples
            assert stats.count == model.count
            assert rng.getstate() == model.rng.getstate()

    stratum = st.tuples(st.lists(st.floats(0.0, 10.0), max_size=64),
                        st.integers(0, 10_000))

    @settings(max_examples=300, deadline=None)
    @given(mine=stratum, theirs=stratum, capacity=st.integers(1, 64),
           seed=st.integers(0, 2 ** 32))
    def test_weighted_sample_merge(self, mine, theirs, capacity, seed):
        rng, model_rng = random.Random(seed), random.Random(seed)
        merged = weighted_sample_merge(
            list(mine[0]), mine[1], list(theirs[0]), theirs[1],
            capacity, rng)
        assert merged == randrange_sample_merge(
            list(mine[0]), mine[1], list(theirs[0]), theirs[1],
            capacity, model_rng)
        assert rng.getstate() == model_rng.getstate()


class TestTracer:
    def test_counters_accumulate(self):
        tracer = Tracer()
        tracer.counter("ops")
        tracer.counter("ops", 2.0)
        assert tracer.counters["ops"] == 3.0

    def test_gauges_keep_last(self):
        tracer = Tracer()
        tracer.gauge("depth", 4.0)
        tracer.gauge("depth", 1.0)
        assert tracer.gauges["depth"] == 1.0

    def test_queue_high_watermark(self):
        tracer = Tracer()
        for depth in (1, 5, 2, 0):
            tracer.queue_depth("q", depth)
        assert tracer.queue_high_watermarks == {"q": 5}

    def test_span_aggregates_phase(self):
        tracer = Tracer()
        tracer.span("phase", 1.0, 0.25, worker="w0")
        tracer.span("phase", 2.0, 0.75)
        summary = tracer.phase_summary()["phase"]
        assert summary["count"] == 2
        assert summary["total"] == 1.0
        assert summary["min"] == 0.25 and summary["max"] == 0.75

    def test_keyed_span_roundtrip(self):
        tracer = Tracer()
        tracer.begin_span("lag", ("obj", 3), t=1.0)
        assert tracer.open_span_count() == 1
        tracer.end_span("lag", ("obj", 3), t=1.5)
        assert tracer.open_span_count() == 0
        assert tracer.phase_summary()["lag"]["max"] == 0.5

    def test_unmatched_end_is_counted_not_recorded(self):
        tracer = Tracer()
        tracer.end_span("lag", "never-opened", t=1.0)
        assert tracer.unmatched_span_ends == 1
        assert "lag" not in tracer.phase_summary()

    def test_cancel_span(self):
        tracer = Tracer()
        tracer.begin_span("flush", "k", t=0.0)
        tracer.cancel_span("flush", "k")
        tracer.cancel_span("flush", "k")  # double-cancel is a no-op
        assert tracer.spans_cancelled == 1
        assert tracer.open_span_count() == 0
        assert "flush" not in tracer.phase_summary()

    def test_end_spans_selects_by_key(self):
        """One cut broadcast retires every version at or below it."""
        tracer = Tracer()
        for version in (1, 2, 3):
            tracer.begin_span("cut", ("obj", version), t=0.0)
        tracer.end_spans("cut", 2.0, lambda key: key[1] <= 2)
        assert tracer.open_span_count() == 1
        assert tracer.phase_summary()["cut"]["count"] == 2

    def test_event_cap_counts_overflow(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.event(float(i), "tick")
        assert len(tracer.events) == 2
        assert tracer.events_dropped == 3
        # Aggregates keep counting past the cap.
        for i in range(5):
            tracer.span("p", float(i), 0.1)
        assert tracer.phase_summary()["p"]["count"] == 5

    def test_serialize_canonical_json_lines(self):
        tracer = Tracer()
        tracer.event(0.5, "boot", 1, zone="a", role="w")
        tracer.span("p", 1.0, 0.25, worker="w0")
        lines = tracer.serialize().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first == {"t": 0.5, "kind": "event", "name": "boot",
                         "value": 1, "labels": {"zone": "a", "role": "w"}}
        # Canonical form: keys sorted in the raw bytes.
        assert lines[0].index('"kind"') < lines[0].index('"labels"')

    def test_summary_shape(self):
        tracer = Tracer()
        tracer.counter("c")
        tracer.gauge("g", 2.0)
        tracer.queue_depth("q", 3)
        tracer.span("p", 1.0, 0.5)
        tracer.begin_span("p", "open", t=1.0)
        summary = tracer.summary()
        assert summary["counters"] == {"c": 1.0}
        assert summary["gauges"] == {"g": 2.0}
        assert summary["queue_high_watermarks"] == {"q": 3}
        assert summary["open_spans"] == 1
        assert summary["phases"]["p"]["count"] == 1


class TupleListTracer(Tracer):
    """The event log as it was stored before the columns — one
    ``(t, kind, name, value, labels)`` tuple per event in a list,
    ``span`` through ``PhaseStats.add`` — kept as the reference the
    columnar log must match byte for byte."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.log = []

    events = property(lambda self: self.log)

    def span(self, name, t, duration, **labels):
        phase = self._phases.get(name)
        if phase is None:
            phase = self._phases[name] = PhaseStats(self.sample_capacity)
        phase.add(duration, self._rng)
        self._record(t, "span", name, duration, labels)

    def _record(self, t, kind, name, value, labels):
        if len(self.log) >= self.max_events:
            self.events_dropped += 1
            return
        self.log.append((t, kind, name, value, tuple(sorted(labels.items()))))

    def summary(self):
        return dict(super().summary(), events_recorded=len(self.log))

    def serialize(self):
        return "\n".join(
            json.dumps({"t": t, "kind": kind, "name": name, "value": value,
                        "labels": dict(labels)}, sort_keys=True, default=str)
            for t, kind, name, value, labels in self.log)


# Small pools, so shapes repeat and the values that compare equal but
# serialize differently (1 / 1.0 / True, 0.0 / -0.0, "1") meet in one
# label, one time and one value.
_numbers = st.sampled_from(
    [0.0, -0.0, 1.0, 0.25, 2.5e-7, float("inf"), float("nan"), 0, 1, 7])
_anything = st.one_of(
    _numbers, st.sampled_from([None, True, False, "", "1", "w0", (1, 2)]))
_names = st.sampled_from(["p", "q", "net.delivery"])
_keys = st.integers(0, 3)
_labels = st.lists(
    st.tuples(st.sampled_from(["worker", "link", "a"]), _anything),
    max_size=3, unique_by=lambda pair: pair[0]).map(dict)
_steps = st.one_of(
    st.tuples(st.just("span"), _names, _numbers, _numbers, _labels),
    st.tuples(st.just("event"), _numbers, _names, _anything, _labels),
    st.tuples(st.just("begin_span"), _names, _keys, _numbers),
    st.tuples(st.just("end_span"), _names, _keys, _numbers, _labels),
    st.tuples(st.just("end_spans"), _names, _numbers, _keys, _labels),
    st.tuples(st.just("cancel_span"), _names, _keys))


class TestColumnarEventLog:
    """``Tracer`` stores its event stream by column and by shape
    (docs/OBSERVABILITY.md, "Storage layout"); everything it reports
    must be what one tuple per event reported."""

    @staticmethod
    def drive(steps, **kwargs):
        """Run ``steps`` through both tracers, comparing after each."""
        tracers = columnar, reference = [
            cls(**kwargs) for cls in (Tracer, TupleListTracer)]
        for hook, *args in steps:
            for tracer in tracers:
                if hook == "end_spans":
                    name, t, bound, labels = args
                    tracer.end_spans(name, t, lambda key: key <= bound,
                                     **labels)
                elif isinstance(args[-1], dict):
                    getattr(tracer, hook)(*args[:-1], **args[-1])
                else:
                    getattr(tracer, hook)(*args)
            assert columnar.serialize() == reference.serialize()
            # repr, not ==: it tells 1 from 1.0 and 0.0 from -0.0, and
            # NaN (not equal to itself once through a C double) apart.
            assert repr(list(columnar.events)) == repr(reference.log)
            assert len(columnar.events) == len(reference.log)
            assert columnar.events_dropped == reference.events_dropped
            assert repr(columnar.summary()) == repr(reference.summary())
            assert columnar._rng.getstate() == reference._rng.getstate()
        return columnar.events, reference.log

    @settings(max_examples=300, deadline=None)
    @given(steps=st.lists(_steps, max_size=40),
           max_events=st.integers(0, 12),
           sample_capacity=st.integers(1, 4))
    def test_matches_the_tuple_list_reference(self, steps, max_events,
                                              sample_capacity):
        events, log = self.drive(steps, max_events=max_events,
                                 sample_capacity=sample_capacity)
        for index in range(-len(log), len(log)):
            assert repr(events[index]) == repr(log[index])
        assert repr(events[1:-1]) == repr(log[1:-1])
        assert repr(events[::-2]) == repr(log[::-2])
        for index in (len(log), -len(log) - 1):
            with pytest.raises(IndexError):
                events[index]

    def test_equal_values_keep_the_type_they_were_written_with(self):
        """``1 == 1.0 == True`` and ``0.0 == -0.0`` hash alike but
        serialize apart: a shape, a time and a value each come back as
        written, whatever was recorded before."""
        lookalikes = [1, 1.0, True, "1", 0, 0.0, -0.0, False, None]
        steps = [("span", "p", 1.0, 0.5, {"a": "x", "b": 2}),
                 ("span", "p", 1.0, 0.5, {"b": 2, "a": "x"})]
        for value in lookalikes:
            steps.append(("span", "p", 1.0, 0.5, {"a": value}))
            steps.append(("event", 1.0, "p", 0.5, {"a": value}))
            steps.append(("event", 1.0, "p", value, {}))
            if value is not None and value != "1":
                steps.append(("span", "p", value, 0.5, {}))
                steps.append(("span", "p", 1.0, value, {}))
        events, _ = self.drive(steps + steps)
        assert len(events) == 2 * len(steps)

    def test_view_is_live_and_read_only(self):
        tracer = Tracer()
        view = tracer.events
        tracer.span("p", 1.0, 0.5, worker="w0")
        assert len(view) == 1
        assert view[0] == (1.0, "span", "p", 0.5, (("worker", "w0"),))
        assert (1.0, "span", "p", 0.5, (("worker", "w0"),)) in view
        with pytest.raises(AttributeError):
            tracer.events = []
        with pytest.raises(TypeError):
            view[0] = None
        assert not hasattr(view, "append")

    def test_a_shape_is_stored_once(self):
        tracer = Tracer()
        for index in range(1000):
            tracer.span("net.delivery", index * 1e-3, 1e-4,
                        link="c%d>w%d" % (index % 2, index % 3))
        labels = {id(event[4]) for event in tracer.events}
        assert len(labels) == 6

    def test_unhashable_label_values_are_still_recorded(self):
        tracer = Tracer()
        tracer.event(1.0, "boot", None, ids=[1, 2])
        tracer.event(2.0, "boot", None, ids=[1, 2])
        assert [json.loads(line)["labels"] for line in
                tracer.serialize().splitlines()] == [{"ids": [1, 2]}] * 2


class TestMergePhaseStats:
    def test_merges_across_tracers_and_skips_none(self):
        a, b = Tracer(), Tracer()
        a.span("p", 1.0, 0.1)
        b.span("p", 1.0, 0.3)
        b.span("q", 1.0, 1.0)
        merged = merge_phase_stats([a, None, b])
        assert merged["p"]["count"] == 2
        assert merged["p"]["total"] == pytest.approx(0.4)
        assert merged["q"]["count"] == 1

    def test_empty(self):
        assert merge_phase_stats([]) == {}
        assert merge_phase_stats([None, Tracer()]) == {}


class TestTracedClusterRun:
    """One short traced D-FASTER run through a failure hits every
    instrumented layer."""

    @pytest.fixture(scope="class")
    def traced(self):
        return run_dfaster_experiment(
            "obs-it", duration=0.3, warmup=0.05, n_workers=2, vcpus=2,
            n_client_machines=1, client_threads=2, batch_size=32,
            checkpoint_interval=0.05, seed=99, failures=(0.15,))

    def test_phases_cover_the_stack(self, traced):
        phases = traced.phases
        for name in ("client.commit", "worker.batch_service",
                     "worker.flush", "worker.persist_lag", "dpr.cut_lag",
                     "net.delivery", "finder.tick", "recovery"):
            assert name in phases, f"missing phase {name}"
            assert phases[name]["count"] > 0

    def test_recovery_span_is_plausible(self, traced):
        recovery = traced.phases["recovery"]
        assert recovery["count"] >= 1
        assert 0.0 < recovery["max"] < 0.3

    def test_counters_and_watermarks(self, traced):
        tracer = traced.tracer
        assert tracer.counters["kernel.dispatched"] > 0
        assert tracer.counters["kernel.processes"] > 0
        assert tracer.counters["finder.ticks"] > 0
        assert tracer.queue_high_watermarks["kernel.heap"] > 0

    def test_no_span_leaks_grow_unbounded(self, traced):
        tracer = traced.tracer
        # In-flight phases at shutdown are fine; a leak proportional to
        # throughput (thousands of committed batches) is not.
        assert tracer.open_span_count() < 100


class TestTracingDoesNotPerturbTheProtocol:
    def test_stats_identical_with_tracing_on_and_off(self):
        kwargs = dict(duration=0.2, warmup=0.05, n_workers=2, vcpus=2,
                      n_client_machines=1, client_threads=2,
                      batch_size=32, checkpoint_interval=0.05, seed=42,
                      failures=(0.1,))
        traced = run_dfaster_experiment("on", **kwargs)
        untraced = run_dfaster_experiment("off", tracer=None, **kwargs)
        assert traced.tracer is not None and untraced.tracer is None
        assert traced.throughput_mops == untraced.throughput_mops
        assert traced.commit_throughput_mops == \
            untraced.commit_throughput_mops
        assert traced.operation_latency == untraced.operation_latency
        assert traced.commit_latency == untraced.commit_latency
        assert traced.stats.completed.series(0.05) == \
            untraced.stats.completed.series(0.05)


TRACED_SCENARIO = """
import hashlib
import json

from repro.cluster import DFasterCluster, DFasterConfig
from repro.obs import Tracer

tracer = Tracer()
cluster = DFasterCluster(DFasterConfig(
    n_workers=2, vcpus=2, n_client_machines=1, client_threads=2,
    batch_size=32, checkpoint_interval=0.05, seed=99, finder="hybrid",
    tracer=tracer))
cluster.schedule_failure(0.15)
stats = cluster.run(0.3, warmup=0.05)
print(json.dumps({
    "events_sha256": hashlib.sha256(
        tracer.serialize().encode()).hexdigest(),
    "summary": tracer.summary(),
    "committed": sum(
        s.session.committed_ops for c in cluster.clients
        for s in c.sessions.values()),
}, sort_keys=True))
"""


def test_trace_stream_identical_across_hash_seeds():
    """The serialized event stream — ordering, labels, sampled
    percentiles and all — is byte-identical under different interpreter
    hash seeds (ISSUE 3 determinism satellite)."""
    first = run_with_hashseed(1, TRACED_SCENARIO)
    second = run_with_hashseed(777, TRACED_SCENARIO)
    assert first == second
    payload = json.loads(first)
    assert payload["committed"] > 0
    assert payload["summary"]["events_recorded"] > 0
    assert payload["summary"]["phases"]["recovery"]["count"] >= 1
