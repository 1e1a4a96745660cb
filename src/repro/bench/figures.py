"""The figure catalog: every §7 sweep is written here, once.

Each ``fig*`` function runs one figure's experiment sweep and returns
``(title, rows)``; :func:`run_figure` runs any of them by name and also
hands back every ``ExperimentResult`` the sweep produced.  The CLI, the
``BENCH_<figure>.json`` artifacts and the pytest wrappers in
``benchmarks/`` (which assert the paper's shapes over these rows at
``scale=1.0``) all go through it:

    python -m repro.bench fig10 --scale 0.5
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.baselines import RecoverabilityLevel, run_recoverability_matrix
from repro.bench.harness import (
    ExperimentResult,
    collect_results,
    run_dfaster_experiment,
    run_dredis_experiment,
)
from repro.cluster.client import ReplicaReadClient
from repro.cluster.dredis import RedisMode
from repro.sim.storage import StorageKind
from repro.workloads import (
    YCSB_A,
    YCSB_A_ZIPFIAN,
    YCSB_B,
    attach_open_loop,
    slo_report,
)

Rows = List[Dict]


def _window(scale: float, base_duration: float = 0.3,
            base_warmup: float = 0.1) -> Tuple[float, float]:
    return max(0.1, base_duration * scale), max(0.05, base_warmup * scale)


def fig10(scale: float = 1.0) -> Tuple[str, Rows]:
    duration, warmup = _window(scale)
    backends = [
        ("no-chkpt", dict(checkpoints_enabled=False, dpr_enabled=False)),
        ("null", dict(storage=StorageKind.NULL)),
        ("local-ssd", dict(storage=StorageKind.LOCAL_SSD)),
        ("cloud-ssd", dict(storage=StorageKind.CLOUD_SSD)),
    ]
    rows = []
    for workload in (YCSB_A, YCSB_A_ZIPFIAN):
        for n_vms in (2, 4, 8):
            row = {"workload": workload.name, "#VM": n_vms}
            for name, overrides in backends:
                row[name] = run_dfaster_experiment(
                    f"fig10 {name}", duration=duration, warmup=warmup,
                    n_workers=n_vms, n_client_machines=n_vms,
                    workload=workload, **overrides,
                ).throughput_mops
            rows.append(row)
    return "Figure 10: scaling out D-FASTER (Mops/s)", rows


def fig11(scale: float = 1.0) -> Tuple[str, Rows]:
    duration, warmup = _window(scale)
    configs = [
        ("no-chkpt", dict(checkpoints_enabled=False, dpr_enabled=False)),
        ("no-dpr", dict(dpr_enabled=False)),
        ("dpr", dict()),
    ]
    rows = []
    for workload in (YCSB_A, YCSB_A_ZIPFIAN):
        for vcpus in (4, 8, 16):
            row = {"workload": workload.name, "#vCPU": vcpus}
            for name, overrides in configs:
                row[name] = run_dfaster_experiment(
                    f"fig11 {name}", duration=duration, warmup=warmup,
                    vcpus=vcpus, workload=workload, **overrides,
                ).throughput_mops
            rows.append(row)
    return "Figure 11: scaling up D-FASTER (Mops/s)", rows


def fig12(scale: float = 1.0) -> Tuple[str, Rows]:
    duration, warmup = _window(scale, 0.6, 0.2)
    rows = []
    for batch in (1024, 64):
        result = run_dfaster_experiment(
            f"fig12 b={batch}", duration=duration, warmup=warmup,
            batch_size=batch, workload=YCSB_A_ZIPFIAN,
        )
        rows.append({
            "config": f"b={batch}",
            "tput_mops": result.throughput_mops,
            "op_p50_ms": result.operation_latency["p50"] * 1e3,
            "op_p95_ms": result.operation_latency["p95"] * 1e3,
            "commit_p50_ms": result.commit_latency["p50"] * 1e3,
            "commit_p95_ms": result.commit_latency["p95"] * 1e3,
        })
    return "Figure 12: D-FASTER latency summary", rows


def fig13(scale: float = 1.0) -> Tuple[str, Rows]:
    rows = []
    # Small batches generate enormous event counts; shrink their windows.
    for batch in (1, 4, 16, 64, 256, 512, 1024):
        duration, warmup = _window(scale, 0.15 if batch < 16 else 0.3,
                                   0.05 if batch < 16 else 0.1)
        result = run_dfaster_experiment(
            f"fig13 b={batch}", duration=duration, warmup=warmup,
            batch_size=batch, workload=YCSB_A_ZIPFIAN,
            n_client_machines=4 if batch < 16 else 8,
        )
        rows.append({"b": batch, "w": 16 * batch,
                     "tput_mops": result.throughput_mops,
                     "op_p50_ms": result.operation_latency["p50"] * 1e3})
    return "Figure 13: throughput-latency trade-off (w = 16b)", rows


def fig14(scale: float = 1.0) -> Tuple[str, Rows]:
    rows = []
    for interval in (0.5, 0.25, 0.1, 0.05, 0.025):
        duration = max(0.6, 4 * interval) * max(scale, 0.5)
        row = {"interval_ms": int(interval * 1e3)}
        for name, kind in [("null", StorageKind.NULL),
                           ("local-ssd", StorageKind.LOCAL_SSD),
                           ("cloud-ssd", StorageKind.CLOUD_SSD)]:
            row[name] = run_dfaster_experiment(
                f"fig14 {name}", duration=duration, warmup=0.2,
                checkpoint_interval=interval, storage=kind,
                workload=YCSB_A_ZIPFIAN,
            ).throughput_mops
        rows.append(row)
    return "Figure 14: storage backend vs checkpoint interval (Mops/s)", rows


def fig15(scale: float = 1.0) -> Tuple[str, Rows]:
    duration, warmup = _window(scale, 0.2, 0.05)
    rows = []
    for remote in (0.0, 0.25, 0.5, 0.75, 1.0):
        row = {"remote%": int(remote * 100)}
        for batch in (1, 16, 1024):
            row[f"b={batch}"] = run_dfaster_experiment(
                f"fig15 p={remote} b={batch}",
                duration=duration, warmup=warmup,
                colocated=True, colocation_local_fraction=1.0 - remote,
                batch_size=batch, workload=YCSB_A_ZIPFIAN,
            ).throughput_mops
        rows.append(row)
    # What co-location is compared against: dedicated servers, at the
    # default batch size only.
    duration, warmup = _window(scale)
    dedicated = run_dfaster_experiment(
        "fig15 dedicated ref", duration=duration, warmup=warmup,
        workload=YCSB_A_ZIPFIAN)
    rows.append({"remote%": "dedicated", "b=1": None, "b=16": None,
                 "b=1024": dedicated.throughput_mops})
    return ("Figure 15: co-located throughput vs remote fraction (Mops/s)",
            rows)


def fig16(scale: float = 1.0) -> Tuple[str, Rows]:
    duration = 45.0 * scale
    failures = tuple(t * scale for t in (15.0, 30.0, 30.05))
    result = run_dfaster_experiment(
        "fig16", duration=duration, warmup=0.25,
        workload=YCSB_A_ZIPFIAN, failures=failures,
    )
    completed = dict(result.stats.completed.series(0.25))
    committed = dict(result.stats.committed.series(0.25))
    aborted = dict(result.stats.aborted.series(0.25))
    rows = [
        {"t_s": bucket,
         "completed_mops": completed.get(bucket, 0.0) / 1e6,
         "committed_mops": committed.get(bucket, 0.0) / 1e6,
         "aborted_mops": aborted.get(bucket, 0.0) / 1e6}
        for bucket in sorted(completed)
        if any(abs(bucket - f) < 2.0 for f in failures)
    ]
    return "Figure 16: recovery timeline (250ms buckets)", rows


def fig17(scale: float = 1.0) -> Tuple[str, Rows]:
    rows = []
    for regime, batch, window, duration, warmup in [
        ("saturated", 1024, 8192, 0.4, 0.1),
        ("unsaturated", 16, 1024, 0.2, 0.05),
    ]:
        for shards in (2, 4, 8):
            row = {"regime": regime, "#shard": shards}
            for name, mode in [("redis", RedisMode.PLAIN),
                               ("redis+proxy", RedisMode.PROXY),
                               ("d-redis", RedisMode.DPR)]:
                row[name] = run_dredis_experiment(
                    f"fig17 {name}", duration=duration * max(scale, 0.5),
                    warmup=warmup, n_shards=shards, mode=mode,
                    batch_size=batch, window=window,
                    n_client_machines=shards,
                ).throughput_mops
            rows.append(row)
    return "Figure 17: D-Redis vs Redis throughput (Mops/s)", rows


def fig18(scale: float = 1.0) -> Tuple[str, Rows]:
    duration, warmup = _window(scale, 0.2, 0.05)
    rows = []
    for name, mode in [("redis", RedisMode.PLAIN),
                       ("redis+proxy", RedisMode.PROXY),
                       ("d-redis", RedisMode.DPR)]:
        result = run_dredis_experiment(
            f"fig18 {name}", duration=duration, warmup=warmup,
            mode=mode, batch_size=16, window=64, client_threads=2,
        )
        rows.append({"config": name,
                     "p50_ms": result.operation_latency["p50"] * 1e3,
                     "p95_ms": result.operation_latency["p95"] * 1e3,
                     "p99_ms": result.operation_latency["p99"] * 1e3})
    return "Figure 18: unsaturated latency, D-Redis vs Redis", rows


def fig19(scale: float = 1.0) -> Tuple[str, Rows]:
    duration, warmup = _window(scale)
    matrix = run_recoverability_matrix(duration=duration, warmup=warmup)
    levels = [RecoverabilityLevel.SYNC, RecoverabilityLevel.DPR,
              RecoverabilityLevel.EVENTUAL, RecoverabilityLevel.NONE]
    rows = [
        {"system": system,
         **{level.value: (None if row[level] is None else row[level] / 1e6)
            for level in levels}}
        for system, row in matrix.items()
    ]
    return ("Figure 19: throughput by recoverability level "
            "(Mops/s; N/A = unsupported)", rows)


def elastic(scale: float = 1.0) -> Tuple[str, Rows]:
    """Throughput timeline across a mid-run scale-out (§5.3).

    Both systems start with two nodes; halfway through, a third node
    joins and the coordinator live-migrates it a fair share of
    partitions at checkpoint boundaries.  The timeline shows the
    transfer windows costing bounded throughput, not availability.
    """
    duration = max(0.4, 1.2 * scale)
    warmup = 0.05
    grow_at = duration * 0.5
    bucket = duration / 8

    def grow_plan(cluster, add_node):
        coordinator = cluster.enable_elasticity(
            partition_count=32, lease_duration=duration)

        def grow():
            yield grow_at
            node = add_node()
            yield from coordinator.scale_out(node)

        cluster.env.process(grow(), name="elastic-grow")

    results = [
        ("d-faster", run_dfaster_experiment(
            "elastic d-faster", duration=duration, warmup=warmup,
            n_workers=2, n_client_machines=2, workload=YCSB_A,
            setup=lambda cluster: grow_plan(cluster, cluster.add_worker))),
        ("d-redis", run_dredis_experiment(
            "elastic d-redis", duration=duration, warmup=warmup,
            n_shards=2, n_client_machines=2, mode=RedisMode.DPR,
            setup=lambda cluster: grow_plan(cluster, cluster.add_shard))),
    ]
    rows = []
    for system, result in results:
        completed = dict(result.stats.completed.series(bucket))
        for t_s in sorted(completed):
            rows.append({
                "system": system,
                "t_s": t_s,
                "phase": "pre" if t_s < grow_at else "post",
                "completed_mops": completed[t_s] / 1e6,
            })
    return "Elasticity: throughput across a mid-run scale-out (Mops/s)", rows


def replication(scale: float = 1.0) -> Tuple[str, Rows]:
    """Recoverable-prefix read scale-out across replica counts.

    YCSB-B writers drive the primaries — paying the chain's reply
    gating, so write throughput dips slightly as chains deepen — while
    closed-loop readers issue recoverable-prefix GETs against the
    chains.  Any replica caught up to the guaranteed cut may serve, so
    read throughput scales with chain depth on both systems.
    """
    duration, warmup = _window(scale)
    window = duration - warmup

    def read_mops(readers):
        ops = sum(count for reader in readers
                  for stamp, _primary, _durable, count in reader.read_log
                  if stamp >= warmup)
        return ops / window / 1e6

    def attach_readers(cluster, readers, seed_base):
        # Enough closed-loop readers to saturate the replicas' read
        # servers (single-threaded here, see replica_vcpus below), so
        # throughput tracks chain depth rather than round-trip latency.
        primaries = sorted(cluster.replication.chains)
        for index in range(32):
            reader = ReplicaReadClient(
                cluster.env, cluster.net, f"bench-reader-{index}",
                cluster.metadata, primaries, rng=seed_base + index)
            cluster.replication.register_client(reader)
            readers.append(reader)
            cluster.env.process(reader.run_closed_loop(),
                                name=f"bench-reader-{index}")

    rows = []
    for factor in (1, 2, 3):
        faster_readers: list = []
        faster = run_dfaster_experiment(
            f"replication d-faster r={factor}",
            duration=duration, warmup=warmup,
            n_workers=2, n_client_machines=2, workload=YCSB_B,
            checkpoint_interval=0.05, replication_factor=factor,
            replica_vcpus=1,
            setup=lambda cluster, readers=faster_readers:
                attach_readers(cluster, readers, 11))
        redis_readers: list = []
        redis = run_dredis_experiment(
            f"replication d-redis r={factor}",
            duration=duration, warmup=warmup,
            n_shards=2, n_client_machines=2, mode=RedisMode.DPR,
            workload=YCSB_B, checkpoint_interval=0.05,
            replication_factor=factor, replica_vcpus=1,
            setup=lambda cluster, readers=redis_readers:
                attach_readers(cluster, readers, 23))
        rows.append({
            "replicas": factor,
            "d-faster reads": read_mops(faster_readers),
            "d-faster writes": faster.throughput_mops,
            "d-redis reads": read_mops(redis_readers),
            "d-redis writes": redis.throughput_mops,
        })
    return ("Replication: recoverable-prefix read scale-out (Mops/s)",
            rows)


def openloop(scale: float = 1.0) -> Tuple[str, Rows]:
    """SLO knee curve: commit latency vs offered open-loop load.

    Sessions arrive at a fixed offered rate whether or not the cluster
    keeps up (no closed-loop coordinated omission), pass the admission
    stack, and their arrival-to-cut commit latency is reported as exact
    percentiles.  Sweeping the rate traces the knee: flat latency while
    capacity holds, then the admission queue fills, sheds absorb the
    overload, and the tail walks out to the queue bound
    (docs/OPENLOOP.md).
    """
    duration, warmup = _window(scale)
    rates = (100e3, 250e3, 500e3, 1e6, 2e6)
    rows = []
    for rate in rates:
        scenario = {
            "arrival": {"rate": rate},
            "session": {"coalesce": 256},
            "admission": {"queue_capacity": 200_000, "max_inflight": 16},
        }
        row = {"offered ksess/s": rate / 1e3}
        for system, runner, overrides in (
            ("d-faster", run_dfaster_experiment,
             dict(n_workers=2, vcpus=4)),
            ("d-redis", run_dredis_experiment,
             dict(n_shards=2, mode=RedisMode.DPR,
                  checkpoint_interval=0.05)),
        ):
            drivers: list = []
            runner(f"openloop {system} rate={rate:g}",
                   duration=duration, warmup=warmup,
                   n_client_machines=0,
                   setup=lambda cluster, drivers=drivers: drivers.append(
                       attach_open_loop(cluster, scenario)),
                   **overrides)
            report = slo_report(drivers[0])
            latency = report["commit_latency"]
            offered = max(1, report["offered_sessions"])
            row[f"{system} p50ms"] = latency["p50"] * 1e3
            row[f"{system} p99ms"] = latency["p99"] * 1e3
            row[f"{system} p999ms"] = latency["p999"] * 1e3
            row[f"{system} shed%"] = 100.0 * report["shed_sessions"] / offered
        rows.append(row)
    return ("Open-loop SLO knee: commit latency vs offered load "
            "(exact percentiles)", rows)


FIGURES: Dict[str, Callable[[float], Tuple[str, Rows]]] = {
    "fig10": fig10, "fig11": fig11, "fig12": fig12, "fig13": fig13,
    "fig14": fig14, "fig15": fig15, "fig16": fig16, "fig17": fig17,
    "fig18": fig18, "fig19": fig19, "elastic": elastic,
    "openloop": openloop, "replication": replication,
}


def run_figure(name: str, scale: float = 1.0,
               ) -> Tuple[str, Rows, List[ExperimentResult]]:
    """Run one figure's sweep: ``(title, rows, results)``.

    ``results`` is every experiment the sweep ran, in order (captured
    via the harness collector, since the fig* functions themselves only
    return selected columns): what the artifact builder reads, and the
    wrappers' histograms and timelines.  An unknown ``name`` is a
    ``KeyError``.
    """
    sweep = FIGURES[name]
    with collect_results() as results:
        title, rows = sweep(scale)
    return title, rows, results
