"""Tests for the benchmark tooling: report rendering, harness, CLI."""

import gc
import pickle
import weakref

import pytest

from repro.bench import artifacts
from repro.bench.figures import FIGURES, run_figure
from repro.bench.harness import (
    collect_results,
    run_dfaster_experiment,
    run_dredis_experiment,
    wallclock_probe,
)
from repro.bench.report import format_latency_histogram, format_table
from repro.cluster.dredis import RedisMode
from repro.workloads import YCSB_A


class TestFormatTable:
    def test_basic_rendering(self):
        text = format_table(
            [{"a": 1, "b": 2.5}, {"a": 10, "b": None}],
            title="T",
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert "N/A" in text
        assert "2.50" in text

    def test_empty_rows(self):
        assert "(no rows)" in format_table([], title="T")

    def test_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_alignment(self):
        text = format_table([{"col": 1}, {"col": 1000}])
        body = text.splitlines()[2:]
        assert body[0].endswith("1")
        assert body[1].endswith("1000")


class TestHistogram:
    def test_bins_and_counts(self):
        text = format_latency_histogram([1.0, 1.1, 5.0, 9.9], "H", bins=3)
        assert text.startswith("H")
        assert text.count("|") == 3
        assert "2" in text  # the two low samples share a bin

    def test_empty(self):
        assert "(no samples)" in format_latency_histogram([], "H")

    def test_single_value(self):
        text = format_latency_histogram([3.0, 3.0], "H", bins=2)
        assert "2" in text


class TestHarness:
    def test_dfaster_result_fields(self):
        result = run_dfaster_experiment(
            "t", duration=0.15, warmup=0.05,
            n_workers=2, vcpus=2, n_client_machines=1,
            client_threads=1, batch_size=64,
        )
        assert result.throughput_mops > 0
        assert result.operation_latency["p50"] > 0

    def test_dredis_result_fields(self):
        result = run_dredis_experiment(
            "t", duration=0.15, warmup=0.05,
            n_shards=2, mode=RedisMode.PLAIN, batch_size=64,
            n_client_machines=1, client_threads=1,
        )
        assert result.throughput_mops > 0

    def test_failures_injected(self):
        result = run_dfaster_experiment(
            "t", duration=0.4, warmup=0.05,
            n_workers=2, vcpus=2, n_client_machines=1,
            client_threads=1, batch_size=64,
            checkpoint_interval=0.05,
            failures=(0.2,),
        )
        assert result.stats.aborted.total() > 0

    @pytest.mark.parametrize("opener", [collect_results, wallclock_probe])
    def test_nested_collectors_unregister_their_own_bucket(self, opener):
        """An inner collector opened right after an outer one has seen
        the same experiments, so the two buckets are *equal* lists: the
        inner exit must drop the inner one, by identity."""
        with opener() as outer:
            with opener() as inner:
                pass
            run_dfaster_experiment("t", **_SMALL_RUN)
        assert len(outer) == 1 and inner == []


_SMALL_RUN = dict(duration=0.15, warmup=0.05, n_workers=2, vcpus=2,
                  n_client_machines=1, client_threads=1, batch_size=64)


@pytest.fixture
def own_collections_only():
    """Automatic collection off, so the only collections a test sees
    are the ones the harness asks for."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.mark.usefixtures("own_collections_only")
class TestExperimentLifecycle:
    """An experiment's turnover costs what that experiment allocated:
    the harness collects the young generations around each run and
    never the whole heap (``bench.harness._gc_paused``)."""

    def test_no_full_collection_per_experiment(self):
        generations = []

        def probe(phase, info):
            if phase == "start":
                generations.append(info["generation"])

        gc.callbacks.append(probe)
        try:
            for index in range(3):
                run_dfaster_experiment(f"t{index}", **_SMALL_RUN)
        finally:
            gc.callbacks.remove(probe)
        assert generations and 2 not in generations, generations

    # The cluster object itself is not in a cycle; its kernel is (every
    # process generator refers back to it), so ``env`` is what only the
    # collector can free -- and what a caller's open-loop driver holds.

    def test_cluster_is_dead_when_the_call_returns(self):
        kernels = []
        run_dfaster_experiment(
            "t", setup=lambda cluster: kernels.append(
                weakref.ref(cluster.env)),
            **_SMALL_RUN)
        assert kernels[0]() is None

    def test_cluster_the_caller_dropped_dies_with_the_next_experiment(self):
        kept, kernels = [], []

        def setup(cluster):
            kept.append(cluster.env)
            kernels.append(weakref.ref(cluster.env))

        run_dfaster_experiment("kept", setup=setup, **_SMALL_RUN)
        assert kernels[0]() is kept[0]
        kept.clear()
        run_dfaster_experiment("next", **_SMALL_RUN)
        assert kernels[0]() is None


class TestResultCrossesAProcessBoundary:
    """Fanning a sweep's experiments across processes (ROADMAP, "Spend
    the ledger" item 2) sends every ``ExperimentResult`` back through
    ``pickle``: it must arrive whole, and small."""

    #: Pickled bytes of the 2-VM fig10 smoke cell's result (5,236
    #: events).  Measured 180,926 with the columnar event log; one
    #: tuple per event made it 322,002.
    SMOKE_RESULT_PICKLE_BUDGET = 200_000

    def test_smoke_result_survives_pickle(self):
        result = run_dfaster_experiment(
            "fig10 smoke", duration=0.1, warmup=0.05, n_workers=2,
            n_client_machines=2, workload=YCSB_A)
        pickled = pickle.dumps(result)
        assert len(pickled) <= self.SMOKE_RESULT_PICKLE_BUDGET
        copy = pickle.loads(pickled)
        assert copy.tracer.serialize() == result.tracer.serialize()
        assert list(copy.tracer.events) == list(result.tracer.events)
        assert copy.tracer.summary() == result.tracer.summary()
        # The artifact merge draws from the reservoirs, so build it
        # from the copy first: equal bytes means equal samples too.
        built = [artifacts.dumps(artifacts.build_artifact(
                     "fig10", 0.35, [each], commit="pinned"))
                 for each in (copy, result)]
        assert built[0] == built[1]
        # The copy keeps recording where the original left off.
        for tracer in (copy.tracer, result.tracer):
            tracer.span("net.delivery", 1.0, 1e-4, link="a>b")
        assert copy.tracer.serialize() == result.tracer.serialize()


class TestFiguresModule:
    def test_registry_covers_all_figures(self):
        expected = ({f"fig{n}" for n in range(10, 20)}
                    | {"elastic", "openloop", "replication"})
        assert set(FIGURES) == expected

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            run_figure("fig99")

    def test_generate_small_figure(self):
        # fig18 is the cheapest figure; a scaled-down run keeps this fast.
        title, rows, results = run_figure("fig18", scale=0.5)
        text = format_table(rows, title=title)
        assert "Figure 18" in text
        assert "d-redis" in text
        assert len(results) == len(rows) == 3


class TestCli:
    def test_main_runs(self, capsys, tmp_path):
        from repro.bench.__main__ import main
        output = tmp_path / "out.txt"
        code = main(["fig18", "--scale", "0.5", "-o", str(output)])
        assert code == 0
        assert "Figure 18" in capsys.readouterr().out
        assert "Figure 18" in output.read_text()

    def test_cli_rejects_unknown(self):
        from repro.bench.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_budget_rejects_profile(self, capsys):
        """--budget gates unprofiled time only: cProfile inflates the
        array core ~2.5x, so the combination is a usage error rather
        than a gate that always fails (docs/PERFORMANCE.md)."""
        from repro.bench.__main__ import main
        with pytest.raises(SystemExit):
            main(["fig18", "--scale", "0.5", "--profile", "--budget", "60"])
        assert "2.5x" in capsys.readouterr().err

    def test_profile_output_flags_inflation(self, capsys, tmp_path):
        """The per-experiment breakdown must carry the inflation caveat
        so profiled deltas are never mistaken for budget-able numbers."""
        from repro.bench.__main__ import main
        code = main(["fig18", "--scale", "0.5", "--profile",
                     "--profile-out", str(tmp_path / "p.prof")])
        assert code == 0
        out = capsys.readouterr().out
        assert "inflated" in out
        assert (tmp_path / "p.prof").exists()

    def test_gc_reenabled_after_experiment(self):
        """The harness pauses cyclic GC per experiment; a crash-free run
        must hand the interpreter back with GC on."""
        import gc
        from repro.bench.harness import run_dfaster_experiment
        from repro.workloads import YCSB_A
        assert gc.isenabled()
        run_dfaster_experiment("gc probe", duration=0.02, warmup=0.01,
                               n_workers=1, n_client_machines=1,
                               workload=YCSB_A)
        assert gc.isenabled()
