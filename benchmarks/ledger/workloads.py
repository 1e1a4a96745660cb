"""The ledger's four workloads.

Each workload puts a *different* layer of the repository on the
critical path (see ``spec.WORKLOADS`` for why each exists) and drives
only public entry points: ``repro.bench.harness.run_*_experiment``,
``repro.bench.artifacts``, ``repro.workloads.attach_open_loop`` /
``slo_report``, ``repro.core.libdpr``, ``repro.core.audit`` and
``repro.sim.faults``.  Timing happens from outside, in ``unit.py``.

A workload has three phases, called in order by the child process:

``prepare()``
    Generate every input from the seed (configs, scenarios, FaultPlans,
    op batches) and read reference files.  Counted as set-up time.
``run(meter, spans)``
    The measured section.  Wrapped in benchmark-side spans; produces
    outputs only, checks nothing.
``report()``
    After the clock stopped: correctness gates, end-to-end numbers,
    sim-domain results and counts, and the ``sim_digest`` of the
    workload's simulated output.

``--seed`` feeds every config, FaultPlan and op-stream seed; the
program under test sees only generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import artifacts
from repro.bench.harness import (
    ExperimentResult,
    collect_results,
    run_dfaster_experiment,
    run_dredis_experiment,
)
from repro.cluster.dredis import RedisMode
from repro.core.audit import InvariantViolation, audit_deployment
from repro.core.finder import (
    ApproximateDprFinder,
    ExactDprFinder,
    HybridDprFinder,
)
from repro.core.libdpr import BatchStatus, DprClientSession, DprServer
from repro.core.recovery import RecoveryController
from repro.core.session import RollbackError
from repro.faster.state_object import FasterStateObject, PendingMarker
from repro.redisclone.state_object import RedisStateObject
from repro.sim.faults import FaultPlan, LinkFault, MetadataOutage, Partition
from repro.sim.storage import StorageKind
from repro.workloads import (
    YCSB_A,
    YCSB_A_ZIPFIAN,
    attach_open_loop,
    slo_report,
    validate_scenario,
    ycsb,
)

from tracing import Meter, Spans

REPO_ROOT = Path(__file__).resolve().parents[2]
FIG10_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_fig10.json"

#: The seed the checked-in fig10 baseline was generated with.
BASELINE_SEED = 42


class Report:
    """What a workload hands back after the clock stopped."""

    def __init__(self) -> None:
        self.work_units = 0.0
        self.tput_mops = 0.0
        self.op_p50_ms = 0.0
        #: ``spec.SIM_RESULTS`` values this workload has (others are 0).
        self.sim: Dict[str, float] = {}
        #: ``spec.COUNTS`` values this workload has (others are 0).
        self.counts: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        #: (name, passed, detail) per correctness gate that ran.
        self.checks: List[Tuple[str, bool, str]] = []
        #: Gates that did not apply (e.g. baseline equality off-seed).
        self.skipped: List[str] = []
        self.sim_digest = ""

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append((name, bool(passed), detail))

    def digest(self, payload: Any) -> None:
        text = payload if isinstance(payload, str) else json.dumps(
            payload, sort_keys=True, default=str)
        self.sim_digest = hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Base: seed/smoke plumbing shared by the four workloads."""

    name = ""
    #: End-to-end metrics this workload reports in *simulated* time;
    #: they must repeat exactly for one seed.
    SIM_TIME_METRICS: Tuple[str, ...] = ("tput_mops", "op_p50_ms")

    def __init__(self, seed: int, smoke: bool = False,
                 tamper: Optional[str] = None):
        self.seed = seed
        self.smoke = smoke
        #: Test-only fault injection into the *checker* (never into the
        #: program): proves a wrong output makes the command fail.
        self.tamper = tamper

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, meter: Meter, spans: Spans) -> None:
        raise NotImplementedError

    def report(self) -> Report:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Shared helpers for the three simulator workloads
# ---------------------------------------------------------------------------


class _Audited:
    """The audit handles of one finished experiment.

    Captured through the harness ``setup=`` hook.  Only the finder and
    the shard engines are retained — holding whole clusters keeps every
    generator of every finished simulation alive, which costs ~45% peak
    RSS and ~35% wall clock on the fig10 grid.  ``keep_cluster`` is for
    the last experiment of a workload, whose cluster costs nothing to
    retain (kernel introspection is read from it); ``live_registry``
    is for a run whose shard set changes (promotion): it is audited
    through the manager's registry as it stands after the run.
    """

    def __init__(self, label: str, cluster, keep_cluster: bool = False,
                 live_registry: bool = False):
        self.label = label
        self.finder = cluster.finder
        shards = getattr(cluster, "workers", None) or cluster.proxies
        self.engines = {shard.address: shard.engine for shard in shards}
        self.cluster = cluster if keep_cluster else None
        self.live_registry = live_registry

    def audit(self) -> Tuple[bool, str]:
        engines = self.engines
        if self.live_registry:
            registry = self.cluster.manager.worker_registry
            engines = {node.engine.object_id: node.engine
                       for node in registry.values()}
        try:
            passed = audit_deployment(self.finder, engines)
        except InvariantViolation as violation:
            return False, f"{self.label}: {violation}"
        return True, f"{self.label}: {', '.join(passed)}"


def _phase(result: ExperimentResult, name: str, field: str) -> float:
    return result.phases.get(name, {}).get(field, 0.0)


def _median_of_nonzero(values: Sequence[float]) -> float:
    present = [value for value in values if value > 0.0]
    return statistics.median(present) if present else 0.0


def _sim_counts(results: Sequence[ExperimentResult],
                last_cluster=None) -> Dict[str, float]:
    """Sim-domain counts over every experiment of a workload.

    Sums across experiments, except peaks (max) and the two lag p50s
    (median of the per-experiment p50s that observed anything).
    ``sim.kernel.handle_reuse`` is read from the *last* experiment's
    Environment, the only cluster a workload can retain for free.
    """
    counters: Dict[str, float] = {}
    heap_peak = depth_peak = 0
    recorded = dropped = 0
    for result in results:
        tracer = result.tracer
        for key, value in tracer.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        for key, depth in tracer.queue_high_watermarks.items():
            if key == "kernel.heap":
                heap_peak = max(heap_peak, depth)
            else:
                depth_peak = max(depth_peak, depth)
        recorded += len(tracer.events)
        dropped += tracer.events_dropped

    def total(phase: str, field: str) -> float:
        return sum(_phase(result, phase, field) for result in results)

    counts = {
        "sim.kernel.events": counters.get("kernel.dispatched", 0.0),
        "sim.kernel.heap_peak": heap_peak,
        "sim.network.deliveries": total("net.delivery", "count"),
        "sim.network.lost": (counters.get("net.fault_lost", 0.0)
                             + counters.get("net.dropped_down", 0.0)),
        "sim.faults.injected": sum(
            value for key, value in counters.items()
            if key.startswith("faults.")),
        "sim.queues.depth_peak": depth_peak,
        "cluster.worker.batches": total("worker.batch_service", "count"),
        "cluster.worker.busy_sim_s": total("worker.batch_service", "total"),
        "cluster.worker.flushes": total("worker.flush", "count"),
        "cluster.worker.persist_lag_p50_ms": 1e3 * _median_of_nonzero(
            [_phase(r, "worker.persist_lag", "p50") for r in results]),
        "cluster.client.commits": total("client.commit", "count"),
        "core.finder.ticks": counters.get("finder.ticks", 0.0),
        "core.finder.cut_lag_p50_ms": 1e3 * _median_of_nonzero(
            [_phase(r, "dpr.cut_lag", "p50") for r in results]),
        "obs.events_recorded": recorded,
        "obs.events_dropped": dropped,
    }
    if last_cluster is not None:
        counts["sim.kernel.handle_reuse"] = (
            last_cluster.env.free_list_reuse_rate)
    return counts


def _ops_ledger(results: Sequence[ExperimentResult]
                ) -> Tuple[float, float]:
    """(completed, aborted) simulated ops over whole runs."""
    completed = sum(r.stats.completed.total() for r in results)
    aborted = sum(r.stats.aborted.total() for r in results)
    return completed, aborted


def _run_audits(report: Report, audited: Sequence[_Audited],
                ops_of: Callable[[int], float]) -> None:
    """Audit every cluster; ops of a cluster that fails count failed."""
    failures = []
    for index, handle in enumerate(audited):
        passed, detail = handle.audit()
        if not passed:
            failures.append(detail)
            report.failed += int(ops_of(index))
    report.check("audit_deployment", not failures,
                 "; ".join(failures) or f"{len(audited)} cluster(s) clean")


# ---------------------------------------------------------------------------
# fig10_sweep
# ---------------------------------------------------------------------------


class Fig10Sweep(Workload):
    """The gated fig10 smoke grid, re-stated in the benchmark's own file.

    {ycsb-a, ycsb-a-zipf} x {2,4,8} VMs x {no-chkpt, null, local-ssd,
    cloud-ssd}; closed loop, n client machines x 4 threads, window
    16*b, b=1024; duration 0.105 s / warmup 0.05 s (``fig10 --scale
    0.35``), same labels, then ``build_artifact`` + ``dumps``.  The
    window cannot shrink (throughput is read from 50 ms buckets), so a
    smoke run keeps it and runs the 2-VM rows only.
    """

    name = "fig10_sweep"
    SCALE = 0.35
    BACKENDS = (
        ("no-chkpt", dict(checkpoints_enabled=False, dpr_enabled=False)),
        ("null", dict(storage=StorageKind.NULL)),
        ("local-ssd", dict(storage=StorageKind.LOCAL_SSD)),
        ("cloud-ssd", dict(storage=StorageKind.CLOUD_SSD)),
    )

    def prepare(self) -> None:
        self.duration = max(0.1, 0.3 * self.SCALE)
        self.warmup = max(0.05, 0.1 * self.SCALE)
        self.grid = [
            (f"fig10 {backend}",
             dict(n_workers=n_vms, n_client_machines=n_vms,
                  workload=workload, seed=self.seed, **overrides))
            for workload in (YCSB_A, YCSB_A_ZIPFIAN)
            for n_vms in ((2,) if self.smoke else (2, 4, 8))
            for backend, overrides in self.BACKENDS
        ]
        self.baseline = None
        if self.seed == BASELINE_SEED and not self.smoke:
            self.baseline = json.loads(FIG10_BASELINE.read_text())

    def run(self, meter: Meter, spans: Spans) -> None:
        self.audited: List[_Audited] = []
        last = len(self.grid) - 1
        with collect_results() as results:
            for index, (label, config) in enumerate(self.grid):
                with spans.span("experiment", label=label,
                                vms=config["n_workers"],
                                workload=config["workload"].name):
                    run_dfaster_experiment(
                        label, duration=self.duration, warmup=self.warmup,
                        setup=lambda cluster, label=label, keep=index == last:
                            self.audited.append(
                                _Audited(label, cluster, keep)),
                        **config)
        self.results = results
        with spans.span("bench.build_artifact"):
            self.artifact = artifacts.build_artifact(
                "fig10", self.SCALE, results, commit="ledger")
        with spans.span("bench.dumps"):
            self.text = artifacts.dumps(self.artifact)

    def report(self) -> Report:
        report = Report()
        results = self.results
        window = self.duration - self.warmup
        report.work_units = sum(
            r.stats.completed.total(self.warmup, self.duration)
            for r in results)
        reference = results[-1]  # ycsb-a-zipf, largest cluster, cloud-ssd
        report.tput_mops = reference.throughput_mops
        report.op_p50_ms = reference.operation_latency["p50"] * 1e3
        completed, aborted = _ops_ledger(results)
        report.attempted = int(completed + aborted)
        report.sim["failed_share"] = aborted / max(1.0, completed + aborted)
        report.counts = _sim_counts(results, self.audited[-1].cluster)

        text = self.text
        if self.tamper == "artifact":
            text = text.replace('"throughput_mops": ',
                                '"throughput_mops": 1', 1)
        artifact = json.loads(text)
        try:
            artifacts.validate(artifact)
            report.check("artifact_schema", True)
        except ValueError as error:
            report.check("artifact_schema", False, str(error))
        report.check(
            "window_throughput",
            all(abs(e["throughput_mops"] * 1e6 * window
                    - r.stats.completed.total(self.warmup, self.duration))
                <= 1e-6 * max(1.0, e["throughput_mops"] * 1e6 * window)
                for e, r in zip(artifact["experiments"], results)),
            "artifact throughput x window equals the completed-op series")
        if self.baseline is None:
            report.skipped.append(
                "fig10_baseline (needs --seed 42 and a full-size run)")
        else:
            mismatch = _first_mismatch(self.baseline, artifact)
            report.check(
                "fig10_baseline", mismatch is None,
                mismatch or "equals benchmarks/baselines/BENCH_fig10.json "
                "modulo commit")
        per_experiment = [
            r.stats.completed.total() + r.stats.aborted.total()
            for r in results]
        _run_audits(report, self.audited, lambda i: per_experiment[i])
        report.digest(self.text)
        return report


def _first_mismatch(baseline: Any, current: Any,
                    path: str = "") -> Optional[str]:
    """First place ``current`` differs from ``baseline``, or None.

    Every value the baseline carries must be reproduced exactly; the
    ``commit`` stamp is ignored, and keys the baseline predates (PR 10
    added ``p999`` to the latency summaries after the file was checked
    in) are allowed on the current side.
    """
    if isinstance(baseline, dict):
        if not isinstance(current, dict):
            return f"{path or '/'}: expected an object"
        for key, value in baseline.items():
            if path == "" and key == "commit":
                continue
            if key not in current:
                return f"{path}/{key}: missing"
            found = _first_mismatch(value, current[key], f"{path}/{key}")
            if found is not None:
                return found
        return None
    if isinstance(baseline, list):
        if not isinstance(current, list) or len(current) != len(baseline):
            return f"{path}: length differs"
        for index, (left, right) in enumerate(zip(baseline, current)):
            found = _first_mismatch(left, right, f"{path}[{index}]")
            if found is not None:
                return found
        return None
    if baseline != current:
        return f"{path}: baseline {baseline!r} != current {current!r}"
    return None


# ---------------------------------------------------------------------------
# openloop_knee
# ---------------------------------------------------------------------------


class OpenLoopKnee(Workload):
    """Open-loop SLO knee: Poisson arrivals at fixed offered rates.

    Rates 100k..2M sess/s x {d-faster 2x4 vCPU, d-redis 2 shards DPR};
    scenario as ``figures.openloop`` (coalesce 256, queue 200 000,
    max_inflight 16); duration 0.6 s / warmup 0.2 s.  Latency is
    arrival->cut measured from the due time; the generator lives in
    simulated time, so it is never late (lateness = 0 by construction).
    A smoke run keeps the window (a cut needs ~70 sim-ms to land) and
    offers the 100k and 500k rates only.
    """

    name = "openloop_knee"
    RATES = (100e3, 250e3, 500e3, 1e6, 2e6)
    REFERENCE = ("d-faster", 500e3)
    SLO_P99_S = 0.150
    SYSTEMS = (
        ("d-faster", run_dfaster_experiment, dict(n_workers=2, vcpus=4)),
        ("d-redis", run_dredis_experiment,
         dict(n_shards=2, mode=RedisMode.DPR, checkpoint_interval=0.05)),
    )

    def prepare(self) -> None:
        self.duration = 0.6
        self.warmup = 0.2
        self.cells = []
        for rate in ((100e3, 500e3) if self.smoke else self.RATES):
            scenario = validate_scenario({
                "arrival": {"rate": rate},
                "session": {"coalesce": 256},
                "admission": {"queue_capacity": 200_000,
                              "max_inflight": 16},
            })
            for system, runner, overrides in self.SYSTEMS:
                self.cells.append((system, rate, runner, scenario,
                                   dict(overrides, seed=self.seed)))

    def run(self, meter: Meter, spans: Spans) -> None:
        self.audited: List[_Audited] = []
        self.rows: List[Tuple[str, float, ExperimentResult, Dict]] = []
        last = len(self.cells) - 1
        for index, (system, rate, runner, scenario, config) in enumerate(
                self.cells):
            label = f"openloop {system} rate={rate:g}"
            drivers: list = []

            def setup(cluster, label=label, keep=index == last):
                drivers.append(attach_open_loop(cluster, scenario))
                self.audited.append(_Audited(label, cluster, keep))

            with spans.span("experiment", label=label):
                result = runner(label, duration=self.duration,
                                warmup=self.warmup, n_client_machines=0,
                                setup=setup, **config)
            with spans.span("workloads.slo_report", label=label):
                slo = slo_report(drivers[0])
            self.rows.append((system, rate, result, slo))

    def report(self) -> Report:
        report = Report()
        results = [result for _s, _r, result, _slo in self.rows]
        slos = [slo for _s, _r, _result, slo in self.rows]
        offered = sum(slo["offered_sessions"] for slo in slos)
        shed = sum(slo["shed_sessions"] for slo in slos)
        aborted = sum(slo["aborted_sessions"] for slo in slos)
        report.work_units = offered
        report.attempted = offered
        report.sim["failed_share"] = (shed + aborted) / max(1, offered)

        reference = next(
            (result, slo) for system, rate, result, slo in self.rows
            if (system, rate) == self.REFERENCE)
        report.tput_mops = reference[0].throughput_mops
        report.op_p50_ms = reference[0].operation_latency["p50"] * 1e3
        latency = reference[1]["commit_latency"]
        report.sim["sim.commit_p50_ms"] = latency["p50"] * 1e3
        report.sim["sim.commit_p99_ms"] = latency["p99"] * 1e3
        report.check("p99_sample_size", latency["count"] >= 1000,
                     f"n={latency['count']} in the reference cell")
        for system, key in (("d-faster", "sim.slo_rate_dfaster_ksess"),
                            ("d-redis", "sim.slo_rate_dredis_ksess")):
            report.sim[key] = self._slo_rate(system) / 1e3

        broken = []
        for (system, rate, _result, slo) in self.rows:
            accounted = (slo["shed_sessions"] + slo["committed_sessions"]
                         + slo["aborted_sessions"] + slo["live_sessions"])
            if accounted != slo["offered_sessions"]:
                broken.append(f"{system}@{rate:g}: offered "
                              f"{slo['offered_sessions']} != {accounted}")
                report.failed += abs(slo["offered_sessions"] - accounted)
        report.check("session_conservation", not broken,
                     "; ".join(broken)
                     or "offered = shed + committed + aborted + live")
        _run_audits(report, self.audited,
                    lambda i: slos[i]["offered_sessions"])

        report.counts = _sim_counts(results, self.audited[-1].cluster)
        report.counts["sim.queues.shed"] = shed
        report.counts["workloads.openloop.peak_live"] = max(
            slo["peak_live_sessions"] for slo in slos)
        report.digest([(system, rate, slo, result.throughput_mops,
                        result.operation_latency)
                       for system, rate, result, slo in self.rows])
        return report

    def _slo_rate(self, system: str) -> float:
        """Highest grid rate up to which every rate meets the SLO."""
        best = 0.0
        for name, rate, _result, slo in self.rows:
            if name != system:
                continue
            meets = (slo["shed_sessions"] == 0
                     and slo["commit_latency"]["count"] > 0
                     and slo["commit_latency"]["p99"] <= self.SLO_P99_S)
            if not meets:
                break
            best = rate
        return best


# ---------------------------------------------------------------------------
# chaos_recovery
# ---------------------------------------------------------------------------


class ChaosRecovery(Workload):
    """The paper's Fig. 16 claim under failure-during-recovery.

    D-FASTER 4 workers x 4 vCPU, hybrid finder, replication factor 1,
    checkpoint 50 ms, ycsb-a-zipf, closed loop 4 client machines x 2
    threads, b=64, 4.0 sim-s.  FaultPlan(seed+564): links drop 1% / dup
    2% / reorder 10%, a client<->worker-2 partition, a metadata outage;
    cluster-wide failures at 0.3, 1.5, 1.55 (nested), 2.3, 3.5 s; a
    worker-1 crash at 0.9 s that takes the promotion path.
    """

    name = "chaos_recovery"
    FAILURES = (0.3, 1.5, 1.55, 2.3, 3.5)
    CRASH_AT = 0.9
    FAULT_SHAPES = ("dropped", "duplicated", "reordered", "partitioned",
                    "metadata_outages")

    def prepare(self) -> None:
        # Smoke keeps the schedule (the promotion needs its quiet
        # window) and cuts the run after the crash instead.
        self.duration = 1.2 if self.smoke else 4.0
        self.warmup = 0.05
        self.failures = tuple(at for at in self.FAILURES
                              if at < self.duration - 0.2)
        self.plan = FaultPlan(
            self.seed + 564,
            links=[LinkFault(drop=0.01, duplicate=0.02, reorder=0.10,
                             reorder_delay=0.5e-3)],
            partitions=[Partition(group_a=("client-*",),
                                  group_b=("worker-2",),
                                  start=0.58, end=0.66)],
            metadata_outages=[MetadataOutage(0.7, 0.73)],
        )
        self.config = dict(
            n_workers=4, vcpus=4, finder="hybrid", replication_factor=1,
            checkpoint_interval=0.05, workload=YCSB_A_ZIPFIAN,
            batch_size=64, n_client_machines=4, client_threads=2,
            seed=self.seed, faults=self.plan)

    def run(self, meter: Meter, spans: Spans) -> None:
        self.audited: List[_Audited] = []

        def setup(cluster):
            cluster.schedule_crash(worker_index=1, at_time=self.CRASH_AT)
            self.audited.append(_Audited("chaos", cluster, keep_cluster=True,
                                         live_registry=True))

        with spans.span("experiment", label="chaos"):
            self.result = run_dfaster_experiment(
                "chaos", duration=self.duration, warmup=self.warmup,
                failures=self.failures, setup=setup, **self.config)

    def report(self) -> Report:
        report = Report()
        result = self.result
        cluster = self.audited[0].cluster
        manager = cluster.manager
        stats = result.stats
        report.work_units = stats.completed.total(self.warmup, self.duration)
        report.tput_mops = result.throughput_mops
        report.op_p50_ms = result.operation_latency["p50"] * 1e3
        commit = result.commit_latency
        report.sim["sim.commit_p50_ms"] = commit["p50"] * 1e3
        report.sim["sim.commit_p99_ms"] = commit["p99"] * 1e3
        report.sim["sim.recovery_ms"] = _phase(
            result, "recovery", "max") * 1e3
        completed, aborted = _ops_ledger([result])
        report.attempted = int(completed + aborted)
        report.sim["failed_share"] = aborted / max(1.0, completed + aborted)

        report.check("p99_sample_size", commit["count"] >= 1000,
                     f"n={commit['count']}")
        silent = [shape for shape in self.FAULT_SHAPES
                  if self.plan.injected[shape] <= 0]
        report.check("fault_shapes_fired", not silent,
                     f"never fired: {silent}" if silent
                     else json.dumps(self.plan.injected, sort_keys=True))
        unfinished = [r["world_line"] for r in manager.recoveries
                      if r["finished_at"] is None]
        report.check(
            "recoveries_finished",
            not unfinished and len(manager.recoveries) == len(self.failures),
            f"{len(manager.recoveries)} recoveries for "
            f"{len(self.failures)} failures; unfinished: {unfinished}")
        report.check("promotion", len(manager.promotions) >= 1,
                     f"{len(manager.promotions)} promotion(s), "
                     f"{manager.promotion_fallbacks} fallback(s)")
        resumed = stats.committed.total(
            max(self.failures + (self.CRASH_AT,)) + 0.1, self.duration)
        report.check("commits_resume", resumed > 0,
                     f"{resumed:.0f} ops committed after the last fault")
        _run_audits(report, self.audited, lambda _i: report.attempted)

        report.counts = _sim_counts([result], cluster)
        report.counts["cluster.services.recoveries"] = len(
            manager.recoveries)
        report.counts["cluster.replication.promotions"] = len(
            manager.promotions)
        report.digest({
            "completed": stats.completed.series(0.1),
            "committed": stats.committed.series(0.1),
            "aborted": stats.aborted.series(0.1),
            "injected": self.plan.injected,
            "recoveries": manager.recoveries,
            "promotions": manager.promotions,
            "operation_latency": result.operation_latency,
            "commit_latency": commit,
        })
        return report


# ---------------------------------------------------------------------------
# libdpr_stores
# ---------------------------------------------------------------------------


class _Leg:
    """One store configuration of ``libdpr_stores``."""

    def __init__(self, name: str, make_shard: Callable[[str], Any],
                 make_finder: Callable[[], Any], dialect: str):
        self.name = name
        self.make_shard = make_shard
        self.make_finder = make_finder
        self.dialect = dialect  # "faster" | "redis"
        # Filled by the run:
        self.wall_s = 0.0
        self.batch_latencies: List[float] = []
        self.rollbacks = 0
        self.recoveries = 0
        self.bad_ops = 0
        self.problems: List[str] = []
        self.shards: Dict[str, Any] = {}
        self.fingerprint: List[Any] = []
        #: PENDING reads caused by the oracle's own state checks (kept
        #: out of the ``faster.reads_pending`` count).
        self.verify_pending = 0


class LibDprStores(Workload):
    """libDPR over real stores, no simulator (the paper's section 6).

    ycsb-a-zipf over 100 k keys with real keys and values; 8 sessions
    round-robin; ``DprClientSession`` -> ``DprServer.process_batch`` ->
    4 key-sharded StateObjects; 2 000 batches x 64 ops per leg;
    ``commit()`` + ``finder.tick()`` + ``refresh_commit`` every 50
    batches, ``RecoveryController.recover`` every 700.  Three legs:
    FASTER that fits in memory + approximate finder; FASTER with a
    5 000-record memory budget per shard (working set 5x the budget, so
    cold reads go PENDING and are resolved) + exact finder; the Redis
    clone + hybrid finder.
    """

    name = "libdpr_stores"
    SIM_TIME_METRICS = ()  # no simulator: everything is host time
    KEYSPACE = 100_000
    N_SHARDS = 4
    N_SESSIONS = 8
    BATCH_OPS = 64
    EPOCH_BATCHES = 50
    RECOVER_BATCHES = 700

    def prepare(self) -> None:
        self.n_batches = 200 if self.smoke else 2000
        self.recover_every = 70 if self.smoke else self.RECOVER_BATCHES
        self.epoch_every = 10 if self.smoke else self.EPOCH_BATCHES
        sample = ycsb("a", zipfian=True, keyspace=self.KEYSPACE).op_sampler(
            random.Random(self.seed))
        # The client wrapper cuts one op stream into per-shard batches:
        # an op joins its key's shard buffer, a full buffer is a batch.
        buffers: List[List[Tuple]] = [[] for _ in range(self.N_SHARDS)]
        self.batches: List[Tuple[int, List[Tuple]]] = []
        writes = 0
        while len(self.batches) < self.n_batches:
            kind, key = sample()
            shard = key % self.N_SHARDS
            if kind == "read":
                op: Tuple = ("read", f"k{key}")
            else:
                writes += 1
                op = ("upsert", f"k{key}", f"v{writes}")
            buffers[shard].append(op)
            if len(buffers[shard]) == self.BATCH_OPS:
                self.batches.append((shard, buffers[shard]))
                buffers[shard] = []
        self.redis_batches = [
            (shard, [("GET", op[1]) if op[0] == "read"
                     else ("SET", op[1], op[2]) for op in ops])
            for shard, ops in self.batches]
        self.legs = [
            _Leg("faster-fit", FasterStateObject,
                 ApproximateDprFinder, "faster"),
            _Leg("faster-spill",
                 lambda name: FasterStateObject(
                     name, memory_budget_records=5000),
                 ExactDprFinder, "faster"),
            _Leg("redis", RedisStateObject, HybridDprFinder, "redis"),
        ]

    # -- the measured section ----------------------------------------------

    def run(self, meter: Meter, spans: Spans) -> None:
        for leg in self.legs:
            batches = (self.redis_batches if leg.dialect == "redis"
                       else self.batches)
            with spans.span("leg", label=leg.name):
                started = meter.now()
                self._run_leg(leg, batches, meter, spans)
                leg.wall_s = meter.now() - started

    def _run_leg(self, leg: _Leg, batches, meter: Meter,
                 spans: Spans) -> None:
        names = [f"shard-{index}" for index in range(self.N_SHARDS)]
        finder = leg.make_finder()
        shards = {name: leg.make_shard(name) for name in names}
        servers = [DprServer(shards[name], finder) for name in names]
        sessions = [DprClientSession(f"session-{index}")
                    for index in range(self.N_SESSIONS)]
        controller = RecoveryController(finder)
        oracle = _Oracle(leg, names, sessions,
                         wrong_value=self.tamper == "replay")
        now = meter.now
        add_span = spans.add
        latencies = leg.batch_latencies
        for index, (shard_index, ops) in enumerate(batches):
            session = sessions[index % self.N_SESSIONS]
            name = names[shard_index]
            server = servers[shard_index]
            while True:
                t0 = now()
                header = session.prepare_batch(name, len(ops))
                t1 = now()
                response = server.process_batch(header, ops)
                if leg.dialect == "faster":
                    response = _resolve_pending(shards[name], response)
                t2 = now()
                try:
                    session.absorb_response(response)
                except RollbackError:
                    # Section 4.2: the server rejected a batch from the
                    # old world-line; acknowledge the surviving prefix
                    # and re-send the same operations.
                    session.acknowledge_rollback()
                    leg.rollbacks += 1
                    continue
                t3 = now()
                break
            add_span("session.prepare", t0, t1)
            add_span("server.process_batch", t1, t2)
            add_span("session.absorb", t2, t3)
            latencies.append(t3 - t0)
            oracle.record(index % self.N_SESSIONS, shard_index,
                          header.first_seqno, ops, response)
            if (index + 1) % self.epoch_every == 0:
                with spans.span("server.commit"):
                    for server in servers:
                        server.commit()
                with spans.span("finder.tick"):
                    cut = finder.tick()
                with spans.span("session.refresh_commit"):
                    for session in sessions:
                        session.refresh_commit(cut)
                oracle.note_commit()
            if (index + 1) % self.recover_every == 0:
                with spans.span("recovery.recover"):
                    plan = controller.recover(shards)
                leg.recoveries += 1
                with meter.paused():
                    oracle.verify_recovery(plan, shards)
        leg.shards = shards
        leg.fingerprint = [
            [session.committed_seqno for session in sessions],
            [shards[name].version for name in names],
            [shards[name].persisted_versions() for name in names],
        ]

    # -- after the clock ---------------------------------------------------------

    def report(self) -> Report:
        report = Report()
        ops_per_leg = self.n_batches * self.BATCH_OPS
        report.work_units = ops_per_leg * len(self.legs)
        report.attempted = int(report.work_units)
        fit = self.legs[0]
        report.tput_mops = ops_per_leg / fit.wall_s / 1e6
        report.op_p50_ms = statistics.median(fit.batch_latencies) * 1e3
        for leg in self.legs:
            report.failed += leg.bad_ops
            report.check(f"replay[{leg.name}]", not leg.problems,
                         "; ".join(leg.problems[:3])
                         or f"{leg.recoveries} recoveries verified")
        report.sim["failed_share"] = report.failed / max(1, report.attempted)
        kvs = [shard.kv for leg in self.legs if leg.dialect == "faster"
               for shard in leg.shards.values()]
        report.counts = {
            "faster.in_place_updates": sum(kv.in_place_updates for kv in kvs),
            "faster.rcu_appends": sum(kv.rcu_appends for kv in kvs),
            "faster.reads_pending": sum(kv.reads_pending for kv in kvs)
            - sum(leg.verify_pending for leg in self.legs),
            "core.session.rollbacks": sum(
                leg.rollbacks for leg in self.legs),
            "cluster.services.recoveries": sum(
                leg.recoveries for leg in self.legs),
        }
        report.digest([leg.fingerprint for leg in self.legs])
        return report


def _resolve_pending(shard: FasterStateObject, response):
    """Finish PENDING reads (cold records below the memory budget)."""
    if response.status is not BatchStatus.OK:
        return response
    results = response.results
    if not any(isinstance(value, PendingMarker) for value in results):
        return response
    return replace(response, results=tuple(
        shard.resolve_pending(value) if isinstance(value, PendingMarker)
        else value for value in results))


class _Oracle:
    """Reference replay of acknowledged writes, by response version.

    ``record`` is the only call on the timed path and merely appends;
    the replay itself runs inside ``verify_recovery`` with the clock
    paused.  It checks, at every recovery:

    - every read returned the value of the latest acknowledged write to
      its key that was live at the time (mismatching ops);
    - each shard's recovered state equals exactly the acknowledged
      writes with version <= its restore target;
    - no operation a session had reported committed sits above the
      restore target (lost-after-commit);
    - no session's ``committed_seqno`` ever regressed.
    """

    def __init__(self, leg: _Leg, names: List[str], sessions,
                 wrong_value: bool):
        self.leg = leg
        self.names = names
        self.sessions = sessions
        self.wrong_value = wrong_value
        self._log: List[Tuple] = []
        #: Per shard: key -> [(version, value), ...] in execution order.
        self._writes: List[Dict[str, List[Tuple[int, str]]]] = [
            {} for _ in names]
        #: Per session: (last seqno, shard, version) per batch, in order.
        self._issued: List[List[Tuple[int, int, int]]] = [
            [] for _ in sessions]
        self._committed = [0] * len(sessions)

    def record(self, session_index: int, shard_index: int,
               first_seqno: int, ops, response) -> None:
        self._log.append((session_index, shard_index, first_seqno, ops,
                          response))

    def note_commit(self) -> None:
        for index, session in enumerate(self.sessions):
            seqno = session.committed_seqno
            if seqno < self._committed[index]:
                self._fail(1, f"{session.session_id}: committed_seqno "
                           f"regressed {self._committed[index]} -> {seqno}")
            self._committed[index] = seqno

    def _fail(self, ops: int, message: str) -> None:
        self.leg.bad_ops += ops
        self.leg.problems.append(f"{self.leg.name}: {message}")

    def _replay_log(self) -> None:
        for session_index, shard_index, first_seqno, ops, response in (
                self._log):
            writes = self._writes[shard_index]
            versions = response.versions
            for op, seen, version in zip(ops, response.results, versions):
                key = op[1]
                if len(op) == 3:
                    writes.setdefault(key, []).append((version, op[2]))
                    continue
                history = writes.get(key)
                expected = history[-1][1] if history else None
                if seen != expected:
                    self._fail(1, f"read {key} returned {seen!r}, "
                               f"reference has {expected!r}")
            self._issued[session_index].append(
                (first_seqno + len(ops) - 1, shard_index, versions[-1]))
        self._log.clear()

    def verify_recovery(self, plan, shards) -> None:
        self._replay_log()
        targets = [plan.target_for(name) for name in self.names]
        # Lost-after-commit: a batch the session had reported committed
        # must sit at or below its shard's restore target.
        for index, issued in enumerate(self._issued):
            committed = self._committed[index]
            for last_seqno, shard_index, version in issued:
                if last_seqno <= committed and version > targets[shard_index]:
                    self._fail(1, f"session-{index} seqno {last_seqno} was "
                               f"committed at version {version} but shard "
                               f"restored to {targets[shard_index]}")
            issued.clear()
        for shard_index, name in enumerate(self.names):
            shard = shards[name]
            target = targets[shard_index]
            writes = self._writes[shard_index]
            pending_before = (shard.kv.reads_pending
                              if self.leg.dialect == "faster" else 0)
            mismatched = 0
            for key, history in writes.items():
                while history and history[-1][0] > target:
                    history.pop()
                expected = history[-1][1] if history else None
                if self.wrong_value and expected is not None:
                    expected += "?"
                    self.wrong_value = False
                if shard.get(key) != expected:
                    mismatched += 1
            if self.leg.dialect == "faster":
                self.leg.verify_pending += (shard.kv.reads_pending
                                            - pending_before)
            if mismatched:
                self._fail(mismatched,
                           f"{name} restored to {target}: {mismatched} "
                           f"key(s) differ from the replay")


WORKLOADS = {cls.name: cls for cls in (Fig10Sweep, OpenLoopKnee,
                                       ChaosRecovery, LibDprStores)}
