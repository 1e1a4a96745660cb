"""The perf ledger's contract: workloads, metrics, bounds, layer rules.

Everything a later issue may cite lives here as data: the four
workload names and why each exists, the end-to-end metrics with their
regression bounds, the per-layer metric names and the file -> layer
bucketing rules of the traced pass.  README.md holds the prose: metric
definitions in full and the predicted interactions (which layer metric
should move which end-to-end metric on which workload, and where the
prediction is *no change*).

``BENCHMARK.json`` at the repository root is generated from this
module (``run.py --emit-contract``); ``test_ledger.py`` holds the two
in sync.  The module imports nothing from ``repro`` so it can be read
in a checkout that lacks ``src/``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

SCHEMA = "repro.ledger/v1"

#: Directory of the ledger relative to the repository root; the only
#: path ``BENCHMARK.json`` declares.
LEDGER_DIR = "benchmarks/ledger"

#: Seconds one driver run measures (``--seconds``).  Fresh children are
#: started until this much time has passed, so a run costs at most
#: ``RUN_SECONDS`` plus one unit (~8 s on the dev container).
RUN_SECONDS = 20

#: name -> one-line reason (the ``why`` of BENCHMARK.json).
WORKLOADS: Dict[str, str] = {
    "fig10_sweep": (
        "closed loop; the gated fig10 smoke grid (24 D-FASTER cells) plus "
        "artifact build: sim kernel, network and client/worker data plane "
        "dominate"),
    "openloop_knee": (
        "open loop; Poisson arrivals at 5 fixed rates x d-faster/d-redis: "
        "admission queue, session table and exact percentiles dominate, "
        "kernel is ~1%"),
    "chaos_recovery": (
        "closed loop under a seeded FaultPlan with nested failures and a "
        "crash->promotion: the only workload running replication, faults, "
        "rollback paths"),
    "libdpr_stores": (
        "no simulator; libDPR client/server over real FASTER (fits, spills) "
        "and Redis stores: core + store substrates dominate, sim and "
        "cluster are 0"),
}

#: (name, unit, better, bound, definition).  Every workload emits every
#: one of these, never 0.  ``bound`` is the share of the parent's
#: median by which the metric may worsen before a change is a
#: regression.  Bounds are sized from the spread of ten driver runs on
#: ten seeds (inter-quartile distance / median; README.md "Noise"): on
#: the shared dev VM host wall clock spreads 1-10% depending on the
#: neighbours, so every host-time metric carries 15-25% where a quiet
#: machine would allow 10%.
END_TO_END: List[Tuple[str, str, str, float, str]] = [
    ("setup_s", "s", "lower", 0.25,
     "child start -> ready: interpreter start, imports, input generation "
     "(op batches, scenarios, FaultPlans), reading the fig10 baseline"),
    ("wall_s", "s", "lower", 0.25,
     "measured section: every experiment of the workload plus artifact / "
     "SLO post-processing; stops before correctness checks"),
    ("work_per_wall_s", "units/s", "higher", 0.25,
     "work completed / wall_s; unit per workload: simulated ops in the "
     "measurement windows (fig10_sweep, chaos_recovery), offered sessions "
     "(openloop_knee), real store ops (libdpr_stores)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "child ru_maxrss at the end of the measured section"),
    ("tput_mops", "Mops/s", "higher", 0.20,
     "store throughput in the workload's own time domain, reference cell: "
     "sim Mops/s of the 8-VM zipfian cloud-ssd cell (fig10_sweep), the "
     "d-faster@500k cell (openloop_knee), the whole run (chaos_recovery); "
     "host Mops/s of the fits-in-memory FASTER leg (libdpr_stores)"),
    ("op_p50_ms", "ms", "lower", 0.15,
     "operation (completion) latency p50 of the same reference cell: sim "
     "ms for the three sim workloads, host ms per 64-op batch round trip "
     "for libdpr_stores"),
]

#: The ledger's layers = this repository's modules, plus ``ledger`` for
#: the benchmark's own driver code.
LAYERS: Tuple[str, ...] = (
    "sim.kernel", "sim.network", "sim.queues", "sim.faults", "sim.storage",
    "core.session", "core.state_object", "core.finder", "core.recovery",
    "cluster.client", "cluster.worker", "cluster.services",
    "cluster.replication", "cluster.dfaster", "cluster.dredis",
    "cluster.costmodel", "cluster.stats",
    "faster", "redisclone", "obs",
    "workloads.openloop", "workloads.ycsb", "bench", "ledger",
)

#: (package, module stem) under ``repro/`` -> layer.  A ``None`` stem
#: matches every module of the package.  Files no rule names fall back
#: to their package name (``cluster``, ``analysis``, ...), which shows
#: in the trace file but is not a declared metric.
LAYER_RULES: Dict[Tuple[str, Optional[str]], str] = {
    ("sim", "kernel"): "sim.kernel",
    ("sim", "rand"): "sim.kernel",
    ("sim", "network"): "sim.network",
    ("sim", "queues"): "sim.queues",
    ("sim", "faults"): "sim.faults",
    ("sim", "storage"): "sim.storage",
    ("core", "session"): "core.session",
    ("core", "libdpr"): "core.session",
    ("core", "state_object"): "core.state_object",
    ("core", "worldline"): "core.state_object",
    ("core", "finder"): "core.finder",
    ("core", "precedence"): "core.finder",
    ("core", "cuts"): "core.finder",
    ("core", "versioning"): "core.finder",
    ("core", "recovery"): "core.recovery",
    ("core", "audit"): "core.recovery",
    ("cluster", "client"): "cluster.client",
    ("cluster", "worker"): "cluster.worker",
    ("cluster", "services"): "cluster.services",
    ("cluster", "metadata"): "cluster.services",
    ("cluster", "replication"): "cluster.replication",
    ("cluster", "dfaster"): "cluster.dfaster",
    ("cluster", "dredis"): "cluster.dredis",
    ("cluster", "costmodel"): "cluster.costmodel",
    ("cluster", "stats"): "cluster.stats",
    ("cluster", "modeled"): "core.state_object",
    ("faster", None): "faster",
    ("redisclone", None): "redisclone",
    ("obs", None): "obs",
    ("workloads", "openloop"): "workloads.openloop",
    ("workloads", "ycsb"): "workloads.ycsb",
    ("workloads", "zipfian"): "workloads.ycsb",
    ("bench", None): "bench",
}

#: Sim-domain results that not every workload has (0 where it has
#: none), so they cannot be end-to-end metrics under the driver's
#: contract.  Exact per seed; ``--compare`` applies the listed bound
#: across commits.  (name, unit, better, bound, definition)
SIM_RESULTS: List[Tuple[str, str, str, float, str]] = [
    ("sim.commit_p50_ms", "ms", "lower", 0.05,
     "commit latency p50: chaos_recovery whole run; openloop_knee "
     "arrival->cut of the d-faster@500k cell; 0 on fig10_sweep (its "
     "reference cell commits nothing inside a 0.105 s run) and "
     "libdpr_stores"),
    ("sim.commit_p99_ms", "ms", "lower", 0.10,
     "as above, p99; the runner asserts n >= 1000 in the cell"),
    ("sim.recovery_ms", "ms", "lower", 0.10,
     "chaos_recovery: longest recovery span (crash -> all RollbackDone)"),
    ("sim.slo_rate_dfaster_ksess", "ksess/s", "higher", 0.0,
     "openloop_knee: highest grid rate up to which every rate has shed = 0 "
     "and p99 arrival->cut <= 150 ms, d-faster"),
    ("sim.slo_rate_dredis_ksess", "ksess/s", "higher", 0.0,
     "same for d-redis"),
    ("failed_share", "ratio", "lower", 0.0,
     "designed losses / attempted: aborted / (completed + aborted) ops "
     "(closed-loop sim), (shed + aborted) / offered sessions (open loop), "
     "mismatching or lost-after-commit ops / issued (libdpr_stores)"),
]

#: Sim-domain counts read from public result objects; exact per seed.
COUNTS: List[Tuple[str, str, str]] = [
    ("sim.kernel.events", "count", "lower"),
    ("sim.kernel.heap_peak", "count", "lower"),
    ("sim.kernel.handle_reuse", "ratio", "higher"),
    ("sim.kernel.events_per_s", "1/s", "higher"),
    ("sim.network.deliveries", "count", "lower"),
    ("sim.network.lost", "count", "lower"),
    ("sim.faults.injected", "count", "higher"),
    ("sim.queues.depth_peak", "count", "lower"),
    ("sim.queues.shed", "count", "lower"),
    ("cluster.worker.batches", "count", "higher"),
    ("cluster.worker.busy_sim_s", "s", "lower"),
    ("cluster.worker.flushes", "count", "higher"),
    ("cluster.worker.persist_lag_p50_ms", "ms", "lower"),
    ("cluster.client.commits", "count", "higher"),
    ("core.finder.ticks", "count", "higher"),
    ("core.finder.cut_lag_p50_ms", "ms", "lower"),
    ("cluster.services.recoveries", "count", "higher"),
    ("cluster.replication.promotions", "count", "higher"),
    ("workloads.openloop.peak_live", "count", "lower"),
    ("obs.events_recorded", "count", "lower"),
    ("obs.events_dropped", "count", "lower"),
    ("faster.in_place_updates", "count", "higher"),
    ("faster.rcu_appends", "count", "lower"),
    ("faster.reads_pending", "count", "lower"),
    ("core.session.rollbacks", "count", "lower"),
]

#: Micro-benchmarks: one public function in isolation.
MICRO: List[Tuple[str, str, str]] = [
    ("sim.kernel.dispatch_per_s", "1/s", "higher"),
    ("sim.kernel.sleep_per_s", "1/s", "higher"),
    ("sim.network.send_per_s", "1/s", "higher"),
    ("sim.queues.handoff_per_s", "1/s", "higher"),
    ("sim.queues.bounded_put_per_s", "1/s", "higher"),
    ("core.finder.approx_tick_per_s", "1/s", "higher"),
    ("core.finder.exact_cut_per_s", "1/s", "higher"),
    ("core.session.batch_per_s", "1/s", "higher"),
    ("cluster.client.batch_per_s", "1/s", "higher"),
    ("core.state_object.execute_per_s", "1/s", "higher"),
    ("faster.op_per_s", "1/s", "higher"),
    ("faster.checkpoint_s", "s", "lower"),
    ("redisclone.command_per_s", "1/s", "higher"),
    ("obs.span_per_s", "1/s", "higher"),
    ("obs.merge_samples_per_s", "1/s", "higher"),
    ("workloads.zipfian_per_s", "1/s", "higher"),
    ("workloads.poisson_per_s", "1/s", "higher"),
    ("cluster.costmodel.batch_time_per_s", "1/s", "higher"),
    ("cluster.stats.reservoir_add_per_s", "1/s", "higher"),
    ("analysis.lint_s", "s", "lower"),
    ("obs.tracer_overhead_ratio", "ratio", "lower"),
    ("host.calib_per_s", "1/s", "higher"),
]

def per_layer_metrics() -> List[Dict[str, str]]:
    """Every per-layer metric, in declaration order."""
    metrics = []
    for layer in LAYERS:
        metrics.append({"name": f"{layer}.self_s", "unit": "s",
                        "better": "lower"})
        metrics.append({"name": f"{layer}.calls", "unit": "count",
                        "better": "lower"})
    metrics.append({"name": "trace.overhead_ratio", "unit": "ratio",
                    "better": "lower"})
    for name, unit, better, _bound, _definition in SIM_RESULTS:
        metrics.append({"name": name, "unit": unit, "better": better})
    for name, unit, better in COUNTS + MICRO:
        metrics.append({"name": name, "unit": unit, "better": better})
    return metrics


def benchmark_json() -> Dict:
    """The exact content of the root ``BENCHMARK.json``."""
    return {
        "command": ["python3", f"{LEDGER_DIR}/run.py"],
        "paths": [LEDGER_DIR],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound, _definition in END_TO_END],
        "per_layer": per_layer_metrics(),
    }


def layer_of_module(package: str, stem: str) -> str:
    """Layer of ``repro/<package>/<stem>.py`` (package-name fallback)."""
    layer = LAYER_RULES.get((package, stem))
    if layer is None:
        layer = LAYER_RULES.get((package, None), package)
    return layer
