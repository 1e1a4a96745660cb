"""Tests for the open-loop fleet driver and its admission stack."""

import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig
from repro.cluster.stats import Reservoir
from repro.obs import Tracer, interpolated_percentile
from repro.sim.kernel import Environment
from repro.sim.queues import BoundedQueue
from repro.workloads import (
    DEFAULT_SCENARIO,
    CohortBacklog,
    ScenarioError,
    SessionTable,
    attach_open_loop,
    poisson_draw,
    slo_report,
    validate_scenario,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_openloop(config_cls, cluster_cls, scenario, duration=0.4,
                 warmup=0.1, **config_kwargs):
    cluster = cluster_cls(config_cls(n_client_machines=0, **config_kwargs))
    driver = attach_open_loop(cluster, scenario=scenario)
    cluster.run(duration, warmup=warmup)
    return cluster, driver


def run_dfaster(scenario, duration=0.4, **config_kwargs):
    config_kwargs.setdefault("n_workers", 2)
    config_kwargs.setdefault("vcpus", 4)
    config_kwargs.setdefault("seed", 7)
    return run_openloop(DFasterConfig, DFasterCluster, scenario,
                        duration=duration, **config_kwargs)


class TestScenarioValidation:
    def test_defaults_round_trip(self):
        merged = validate_scenario(None)
        assert merged == DEFAULT_SCENARIO
        assert merged["session"] is not DEFAULT_SCENARIO["session"]

    def test_overrides_deep_merge(self):
        merged = validate_scenario(
            {"arrival": {"rate": 1e6}, "admission": {"max_inflight": 16}})
        assert merged["arrival"]["rate"] == 1e6
        assert merged["admission"]["max_inflight"] == 16
        # Untouched keys keep their defaults.
        assert merged["admission"]["queue_capacity"] == \
            DEFAULT_SCENARIO["admission"]["queue_capacity"]
        assert merged["session"] == DEFAULT_SCENARIO["session"]
        # The shared default dict is not mutated.
        assert DEFAULT_SCENARIO["arrival"]["rate"] != 1e6

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioError, match="arrivals"):
            validate_scenario({"arrivals": {"rate": 1e6}})

    def test_unknown_key_names_the_path(self):
        with pytest.raises(ScenarioError, match="arrival.rat"):
            validate_scenario({"arrival": {"rat": 1e6}})
        # What the scenario no longer carries is unknown too.
        with pytest.raises(ScenarioError, match="session.ops"):
            validate_scenario({"session": {"ops": 8}})
        with pytest.raises(ScenarioError, match="admission.policy"):
            validate_scenario({"admission": {"policy": "reject"}})

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ScenarioError, match="arrival.rate"):
            validate_scenario({"arrival": {"rate": 0}})
        with pytest.raises(ScenarioError, match="arrival.rate"):
            validate_scenario({"arrival": {"rate": -1.0}})
        with pytest.raises(ScenarioError, match="session.coalesce"):
            validate_scenario({"session": {"coalesce": 0}})
        with pytest.raises(ScenarioError, match="admission.queue_capacity"):
            validate_scenario({"admission": {"queue_capacity": -5}})
        with pytest.raises(ScenarioError, match="admission.max_inflight"):
            validate_scenario({"admission": {"max_inflight": 0}})

    @pytest.mark.parametrize("section,key,value", [
        # Each of these used to pass validation: the float died inside
        # the simulation (range(64.0)), the others ran by accident of
        # float/bool comparison.
        ("session", "coalesce", 64.0),
        ("admission", "queue_capacity", 2e4),
        ("admission", "max_inflight", True),
    ])
    def test_session_counts_must_be_ints(self, section, key, value):
        with pytest.raises(ScenarioError, match=f"{section}.{key}"):
            validate_scenario({section: {key: value}})

    def test_first_broken_rule_is_hash_seed_independent(self):
        # Two rules broken at once: the error names the first in
        # declared order, whatever PYTHONHASHSEED salts set order with.
        probe = ("from repro.workloads import ScenarioError, "
                 "validate_scenario\n"
                 "try:\n"
                 "    validate_scenario({'admission': {'max_inflight': 0},"
                 " 'arrival': {'rate': 0}})\n"
                 "except ScenarioError as exc:\n"
                 "    print(exc)\n")
        messages = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            result = subprocess.run([sys.executable, "-c", probe],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            messages.append(result.stdout)
        assert messages == ["arrival.rate must be > 0, got 0\n"] * 2


class TestPrimitives:
    def test_poisson_draw_mean_tracks_lambda(self):
        rng = random.Random(3)
        for lam in (0.5, 4.0, 200.0):  # Knuth and normal-approx regimes
            draws = [poisson_draw(rng, lam) for _ in range(4000)]
            assert all(d >= 0 for d in draws)
            mean = sum(draws) / len(draws)
            assert mean == pytest.approx(lam, rel=0.1)

    def test_poisson_draw_zero_rate(self):
        assert poisson_draw(random.Random(1), 0.0) == 0

    def test_session_table_counts_cohorts(self):
        table = SessionTable()
        table.arrive(2, 0)
        assert (table.allocated, table.live, table.peak_live) == (2, 2, 2)
        table.release(1)
        assert table.live == 1
        # Peak remembers the high-water; a cohort that displaced
        # sessions peaks one above where it settles (each victim left
        # only after the newcomer that evicted it was counted).
        table.arrive(5, 3)
        assert (table.allocated, table.live, table.peak_live) == (7, 3, 4)
        table.arrive(1, 0)
        assert (table.live, table.peak_live) == (4, 4)


class PerSessionModel:
    """The reference the cohort backlog replaced: a shed-oldest
    ``BoundedQueue`` holding one item (its arrival stamp) per session."""

    def __init__(self, capacity):
        self.env = Environment(tracer=Tracer())
        self.victims = []
        self.queue = BoundedQueue(
            self.env, capacity, name="admit", policy="shed-oldest",
            on_shed=self.victims.append)

    def offer(self, runs):
        before = len(self.victims)
        for arrival, count in runs:
            for _ in range(count):
                self.queue.put(arrival)
        return len(self.victims) - before

    def take(self, count):
        return [self.queue.try_get() for _ in range(count)]


def stamps(runs):
    """One arrival stamp per session, in FIFO order."""
    return [arrival for arrival, count in runs for _ in range(count)]


def observable(env, queue):
    tracer = env.tracer
    return (len(queue), queue.shed_items, dict(tracer.queue_depths), dict(tracer.queue_high_watermarks),
            dict(tracer.counters))


class TestCohortBacklogMatchesPerSessionQueue:
    #: (kind, size): 0 a fresh tick's arrivals, 1 a dispatch of up to
    #: ``size`` sessions, 2 the last dispatched batch refused and
    #: re-offered.  Capacities start below a single run's size.
    steps = st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 12)),
        min_size=1, max_size=60)

    @settings(max_examples=300, deadline=None)
    @given(capacity=st.integers(1, 20), steps=steps)
    def test_same_depths_counters_and_fifo_order(self, capacity, steps):
        model = PerSessionModel(capacity)
        env = Environment(tracer=Tracer())
        backlog = CohortBacklog(env, capacity, name="admit")
        last_batch = ()
        for tick, (kind, size) in enumerate(steps):
            if kind == 1:
                count = min(size, len(backlog))
                last_batch = backlog.take(count)
                assert stamps(last_batch) == model.take(count)
            else:
                runs = last_batch if kind == 2 else ((float(tick), size),)
                assert backlog.offer(runs) == model.offer(runs)
                last_batch = ()
            assert observable(env, backlog) == \
                observable(model.env, model.queue)
        # Drained, both hand back the same sessions in the same order.
        assert stamps(backlog.take(len(backlog))) == \
            model.take(len(model.queue))


class TestReservoirAddRun:
    @pytest.mark.parametrize("before", [0, 3, 8, 11])  # capacity is 8
    @pytest.mark.parametrize("n", [0, 1, 4, 9, 30])
    def test_add_run_is_n_adds(self, before, n):
        # Runs that start below, straddle and start above the fill
        # boundary: same samples, same count.  Both reservoirs read one
        # slot stream, and it holds the randrange model's draws.
        one_by_one, by_run = Reservoir(8, rng=5), Reservoir(8, rng=5)
        assert by_run._stream is one_by_one._stream
        for reservoir in (one_by_one, by_run):
            for index in range(before):
                reservoir.add(float(index))
        for _ in range(n):
            one_by_one.add(-1.0)
        by_run.add_run(-1.0, n)
        assert by_run._samples == one_by_one._samples
        assert by_run.count == one_by_one.count == before + n
        assert_stream_is_the_randrange_stream(by_run, 5)
        assert by_run.summary() == one_by_one.summary()

    def test_negative_run_raises(self):
        reservoir = Reservoir(8, rng=5)
        reservoir.add_run(1.0, 3)
        with pytest.raises(ValueError):
            reservoir.add_run(1.0, -1)
        assert reservoir.count == 3 and list(reservoir._samples) == [1.0] * 3

    def test_seed_is_an_int(self):
        # A Random cannot key a shared stream.
        with pytest.raises(TypeError):
            Reservoir(8, rng=random.Random(5))


class RandrangeReservoir:
    """Algorithm R as the stdlib spells it -- one ``rng.randrange`` per
    observation past the fill boundary.  ``Reservoir`` reads that draw,
    written out as its rejection loop over ``getrandbits``
    (docs/PERFORMANCE.md rule 3), from a slot stream it shares with
    every reservoir of its seed and capacity; this is the reference it
    must stay sample-exact with, on every interpreter CI runs."""

    def __init__(self, capacity, seed):
        self.capacity = capacity
        self.rng = random.Random(seed)
        self.samples = []
        self.count = 0

    def add(self, value):
        self.count += 1
        if len(self.samples) < self.capacity:
            self.samples.append(value)
        else:
            slot = self.rng.randrange(self.count)
            if slot < self.capacity:
                self.samples[slot] = value


#: ``(seed, capacity)`` -> ``[Random(seed), n]``: the randrange model
#: of that key's slot stream, advanced through observation ``n``.  The
#: streams live as long as the process, so the models do too: no test
#: may assume a stream is fresh.
_STREAM_MODELS = {}


def assert_stream_is_the_randrange_stream(reservoir, seed):
    """The reservoir's stream RNG is where a ``Random(seed)`` calling
    ``randrange(k)`` for observations ``capacity + 1 ... drawn`` is."""
    stream = reservoir._stream
    model = _STREAM_MODELS.setdefault(
        (seed, reservoir.capacity),
        [random.Random(seed), reservoir.capacity])
    rng, through = model
    for count in range(through + 1, stream.drawn + 1):
        rng.randrange(count)
    model[1] = stream.drawn
    assert stream.rng.getstate() == rng.getstate()


class TestReservoirDrawsTheRandrangeStream:
    #: ("add", _) one observation; ("run", n) a plain run; ("fill", d) /
    #: ("pow2", d) a run ending ``d`` observations past the fill
    #: boundary / the next power of two of ``count``, where the inlined
    #: draw changes branch / bit width.
    steps = st.lists(
        st.one_of(
            st.tuples(st.just("add"), st.just(0)),
            st.tuples(st.just("run"), st.integers(0, 300)),
            st.tuples(st.sampled_from(("fill", "pow2")),
                      st.integers(-2, 2))),
        min_size=1, max_size=25)

    @settings(max_examples=200, deadline=None)
    @given(capacity=st.integers(1, 64), seed=st.integers(0, 2 ** 32),
           steps=steps, values=st.randoms(use_true_random=False))
    def test_same_samples_count_and_rng_state(self, capacity, seed, steps,
                                              values):
        model = RandrangeReservoir(capacity, seed)
        reservoir = Reservoir(capacity, rng=seed)
        for kind, size in steps:
            value = values.random()
            if kind == "add":
                n = 1
                reservoir.add(value)
            else:
                if kind == "fill":
                    size += capacity - model.count
                elif kind == "pow2":
                    size += (1 << model.count.bit_length()) - model.count
                n = max(0, size)
                reservoir.add_run(value, n)
            for _ in range(n):
                model.add(value)
            assert list(reservoir._samples) == model.samples
            assert reservoir.count == model.count
            assert_stream_is_the_randrange_stream(reservoir, seed)


class TestReservoirsShareOneSlotStream:
    """Every reservoir of one seed and capacity reads one slot stream,
    whatever order they count in; a reservoir of another seed or
    capacity reads its own."""

    #: (reservoir index, "add" or "run", run length)
    steps = st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from(("add", "run")),
                  st.integers(0, 120)),
        min_size=1, max_size=30)

    @settings(max_examples=150, deadline=None)
    @given(capacity=st.integers(1, 32), seed=st.integers(0, 2 ** 32),
           sharing=st.integers(2, 4), steps=steps,
           values=st.randoms(use_true_random=False))
    def test_each_reservoir_is_its_own_algorithm_r(self, capacity, seed,
                                                   sharing, steps, values):
        # ``sharing`` reservoirs on one key, then one neighbour on the
        # next capacity and one on the next seed.
        keys = [(seed, capacity)] * sharing + [(seed, capacity + 1),
                                               (seed + 1, capacity)]
        reservoirs = [Reservoir(c, rng=s) for s, c in keys]
        models = [RandrangeReservoir(c, s) for s, c in keys]
        shared = reservoirs[0]._stream
        assert all(r._stream is shared for r in reservoirs[:sharing])
        assert len({id(r._stream) for r in reservoirs[sharing - 1:]}) == 3
        for index, kind, size in steps:
            index %= len(keys)
            value = values.random()
            if kind == "add":
                n = 1
                reservoirs[index].add(value)
            else:
                n = size
                reservoirs[index].add_run(value, n)
            for _ in range(n):
                models[index].add(value)
            for reservoir, model in zip(reservoirs, models):
                assert list(reservoir._samples) == model.samples
                assert reservoir.count == model.count
        for reservoir, (key_seed, _) in zip(reservoirs[sharing - 1:],
                                            keys[sharing - 1:]):
            assert_stream_is_the_randrange_stream(reservoir, key_seed)


SMALL_SCENARIO = {
    "arrival": {"rate": 50_000.0},
    "admission": {"queue_capacity": 20_000},
}

OVERLOAD_SCENARIO = {
    "arrival": {"rate": 2_000_000.0},
    "session": {"coalesce": 256},
    "admission": {"queue_capacity": 50_000, "max_inflight": 16},
}


def _report_of_runs(runs):
    """``slo_report`` of a finished driver that committed ``runs``."""
    idle = SimpleNamespace(allocated=0, live=0, peak_live=0)
    return slo_report(SimpleNamespace(
        table=idle, admit=SimpleNamespace(shed_items=0),
        completed_sessions=0, committed_sessions=0, aborted_sessions=0,
        commit_latencies=runs))["commit_latency"]


class TestRunPercentiles:
    """``slo_report`` reads its exact percentiles from ``(latency,
    count)`` runs by cumulative rank; they must be the bytes
    ``interpolated_percentile`` gives over the expanded sorted list."""

    # Few distinct latencies, so runs tie often.
    latency = st.sampled_from([0.0, 1e-4, 0.0125, 0.05, 0.0625, 0.25]) | \
        st.floats(0.0, 1.0)
    runs = st.lists(st.tuples(latency, st.integers(1, 40)), max_size=40)

    @staticmethod
    def expanded(runs):
        return sorted(latency for latency, count in runs
                      for _ in range(count))

    @settings(max_examples=300, deadline=None)
    @given(runs=runs)
    def test_report_matches_the_expanded_list(self, runs):
        ordered = self.expanded(runs)
        assert _report_of_runs(runs) == {
            "count": len(ordered),
            "p50": interpolated_percentile(ordered, 50),
            "p99": interpolated_percentile(ordered, 99),
            "p999": interpolated_percentile(ordered, 99.9),
        }

    @pytest.mark.parametrize("runs", [
        [(0.125, 1)],                                    # n = 1
        [(0.5, 1), (0.25, 1)],
        [(0.25, 3), (0.125, 2), (0.25, 4), (0.125, 1)],  # ties
        [(0.001 * index, 1 + index % 7) for index in range(400)],
        [(0.25, 999), (1.0, 1)],                         # p999 interpolates
    ])
    def test_boundary_cases(self, runs):
        ordered = self.expanded(runs)
        report = _report_of_runs(runs)
        assert report["count"] == len(ordered)
        for key, q in (("p50", 50), ("p99", 99), ("p999", 99.9)):
            assert report[key] == interpolated_percentile(ordered, q)

    def test_no_runs(self):
        assert _report_of_runs([]) == {
            "count": 0, "p50": 0.0, "p99": 0.0, "p999": 0.0}


class TestOpenLoopDriver:
    def test_sessions_commit_against_dfaster(self):
        _, driver = run_dfaster(SMALL_SCENARIO)
        report = slo_report(driver)
        assert report["committed_sessions"] > 0
        assert report["commit_latency"]["count"] == \
            report["committed_sessions"]
        assert 0 < report["commit_latency"]["p50"] <= \
            report["commit_latency"]["p99"] <= \
            report["commit_latency"]["p999"]

    def test_sessions_commit_against_dredis(self):
        _, driver = run_openloop(
            DRedisConfig, DRedisCluster, SMALL_SCENARIO,
            n_shards=2, seed=7, checkpoint_interval=0.05)
        assert slo_report(driver)["committed_sessions"] > 0

    def test_same_seed_reproduces_report(self):
        first = slo_report(run_dfaster(SMALL_SCENARIO)[1])
        second = slo_report(run_dfaster(SMALL_SCENARIO)[1])
        assert first == second

    def test_session_conservation(self):
        # Every offered session is accounted for exactly once:
        # shed, committed, aborted, or still live at the end.
        report = slo_report(run_dfaster(OVERLOAD_SCENARIO)[1])
        assert report["offered_sessions"] == (
            report["shed_sessions"] + report["committed_sessions"]
            + report["aborted_sessions"] + report["live_sessions"])

    def test_overload_sheds_and_bounds_the_backlog(self):
        tracer = Tracer()
        cluster, driver = run_dfaster(OVERLOAD_SCENARIO, tracer=tracer)
        report = slo_report(driver)
        assert report["shed_sessions"] > 0
        assert driver.admit.shed_items == report["shed_sessions"]
        # The admission queue never exceeded its bound (the watermark
        # is recorded on every enqueue) and the shed counter surfaced.
        key = "queue.admit:openloop-0"
        assert tracer.queue_high_watermarks[key] <= \
            driver.admit.capacity
        assert tracer.counters[key + ".shed"] == report["shed_sessions"]
        # Post-run the depth gauge reflects the live backlog.
        assert tracer.queue_depths[key] == len(driver.admit)

    def test_crash_preserves_prefix_recoverability(self):
        # A mid-run crash rolls the world line forward: sessions beyond
        # the recovered cut abort, committed ones stay committed, and
        # the driver keeps committing on the new world line.
        cluster = DFasterCluster(DFasterConfig(
            n_workers=3, vcpus=2, n_client_machines=0, seed=7,
            checkpoint_interval=0.05))
        cluster.schedule_crash(worker_index=1, at_time=0.3)
        driver = attach_open_loop(cluster, scenario=SMALL_SCENARIO)
        committed_at_crash = {}

        def probe():
            yield 0.3
            committed_at_crash["count"] = driver.committed_sessions

        cluster.env.process(probe(), name="probe")
        cluster.run(1.0, warmup=0.05)
        report = slo_report(driver)
        assert driver.session.world_line.current >= 1
        assert report["aborted_sessions"] > 0
        # No committed session was lost to the rollback, and commits
        # resumed on the new world line.
        assert report["committed_sessions"] > committed_at_crash["count"] > 0
        assert report["offered_sessions"] == (
            report["shed_sessions"] + report["committed_sessions"]
            + report["aborted_sessions"] + report["live_sessions"])

    def test_smoke_sustains_100k_concurrent_sessions(self):
        # The flagship scale documented in docs/OPENLOOP.md is 1M
        # concurrent; the CI smoke asserts a tenth of that.
        scenario = {
            "arrival": {"rate": 2_000_000.0},
            "session": {"coalesce": 256},
            "admission": {"queue_capacity": 200_000, "max_inflight": 16},
        }
        _, driver = run_dfaster(scenario)
        assert driver.table.peak_live >= 100_000
