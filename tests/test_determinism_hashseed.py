"""Cluster simulation is byte-identical across PYTHONHASHSEED values.

Set and frozenset iteration order depends on the interpreter's hash
randomization; dprlint DPR-D02 bans unsorted iteration over set-typed
state in the protocol packages precisely so this test can pass.  Two
fresh interpreters with different hash seeds run the same failure
scenario and must print the same stats JSON, byte for byte.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

SCENARIO = textwrap.dedent(
    """
    import json

    from repro.cluster import DFasterCluster, DFasterConfig

    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=1, client_threads=2,
        batch_size=32, checkpoint_interval=0.05, seed=99, finder="exact"))
    cluster.schedule_failure(0.15)
    stats = cluster.run(0.35, warmup=0.05)
    summary = {
        "committed": sum(
            s.session.committed_ops for c in cluster.clients
            for s in c.sessions.values()),
        "aborted": sum(
            s.session.aborted_ops for c in cluster.clients
            for s in c.sessions.values()),
        "cut": str(cluster.finder.current_cut()),
        "world_line": cluster.manager.controller.world_line,
        "completed": stats.completed.series(0.05),
    }
    print(json.dumps(summary, sort_keys=True))
    """
)


CHAOS_SCENARIO = textwrap.dedent(
    """
    import json

    from repro.cluster import DFasterCluster, DFasterConfig
    from repro.sim.faults import FaultPlan, LinkFault, MetadataOutage

    plan = FaultPlan(
        909,
        links=[LinkFault(drop=0.01, duplicate=0.02, reorder=0.1)],
        metadata_outages=[MetadataOutage(0.25, 0.27)],
    )
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=1, client_threads=2,
        batch_size=32, checkpoint_interval=0.05, seed=99, finder="hybrid"),
        faults=plan)
    cluster.schedule_failure(0.15)
    stats = cluster.run(0.35, warmup=0.05)
    summary = {
        "committed": sum(
            s.session.committed_ops for c in cluster.clients
            for s in c.sessions.values()),
        "aborted": sum(
            s.session.aborted_ops for c in cluster.clients
            for s in c.sessions.values()),
        "injected": dict(plan.injected),
        "retransmissions": cluster.manager.retransmissions,
        "duplicates_absorbed": sum(
            w.duplicate_batches for w in cluster.workers),
        "cut": str(cluster.finder.current_cut()),
        "world_line": cluster.manager.controller.world_line,
        "completed": stats.completed.series(0.05),
    }
    print(json.dumps(summary, sort_keys=True))
    """
)


ELASTIC_SCENARIO = textwrap.dedent(
    """
    import json

    from repro.cluster import DFasterCluster, DFasterConfig

    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=1, client_threads=2,
        batch_size=32, checkpoint_interval=0.05, seed=99))
    elastic = cluster.enable_elasticity(partition_count=16,
                                        lease_duration=0.2)

    def grow():
        yield 0.1
        worker = cluster.add_worker()
        yield from elastic.scale_out(worker)

    cluster.env.process(grow(), name="grow")
    stats = cluster.run(0.3, warmup=0.05)
    summary = {
        "committed": sum(
            s.session.committed_ops for c in cluster.clients
            for s in c.sessions.values()),
        "bounces": sum(c.not_owner_bounces for c in cluster.clients),
        "migrations": elastic.migrations_completed,
        "owners": {p: elastic.owner_of(p) for p in range(16)},
        "partition_of": [elastic.partitioner.partition_of("key-%d" % i)
                         for i in range(32)],
        "completed": stats.completed.series(0.05),
    }
    print(json.dumps(summary, sort_keys=True))
    """
)


REPLICATION_SCENARIO = textwrap.dedent(
    """
    import json

    from repro.cluster import DFasterCluster, DFasterConfig
    from repro.cluster.client import ReplicaReadClient

    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=1, client_threads=2,
        batch_size=32, checkpoint_interval=0.05, seed=99,
        replication_factor=2))
    reader = ReplicaReadClient(
        cluster.env, cluster.net, "rclient", cluster.metadata,
        [w.address for w in cluster.workers], rng=7)
    cluster.env.process(reader.run_closed_loop(batch_keys=4),
                        name="reader")
    cluster.schedule_crash(0, at_time=0.15)
    stats = cluster.run(0.4, warmup=0.05)
    chains = sorted(
        (primary, replica_id, applied, durable)
        for primary in ("worker-0", "worker-1")
        for replica_id, applied, durable
        in cluster.metadata.replicas_of(primary))
    summary = {
        "committed": sum(
            s.session.committed_ops for c in cluster.clients
            for s in c.sessions.values()),
        "promotions": cluster.manager.promotions,
        "world_line": cluster.manager.controller.world_line,
        "reads": reader.reads_completed,
        "behind": reader.behind_bounces,
        "failed_reads": reader.reads_failed,
        "chains": chains,
        "cut": str(cluster.finder.current_cut()),
        "completed": stats.completed.series(0.05),
    }
    print(json.dumps(summary, sort_keys=True))
    """
)


OPENLOOP_SCENARIO = textwrap.dedent(
    """
    import hashlib
    import json

    from repro.cluster import DFasterCluster, DFasterConfig
    from repro.obs import Tracer
    from repro.workloads import attach_open_loop, slo_report

    tracer = Tracer()
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=0, seed=99,
        checkpoint_interval=0.05, tracer=tracer))
    cluster.schedule_crash(worker_index=1, at_time=0.2)
    driver = attach_open_loop(cluster, scenario={
        "arrival": {"rate": 300000.0},
        "admission": {"queue_capacity": 20000},
    })
    cluster.run(0.4, warmup=0.05)
    summary = slo_report(driver)
    summary["trace_sha"] = hashlib.sha256(
        tracer.serialize().encode()).hexdigest()
    print(json.dumps(summary, sort_keys=True))
    """
)


def run_with_hashseed(seed, scenario=SCENARIO):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", scenario],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_stats_identical_across_hash_seeds():
    first = run_with_hashseed(1)
    second = run_with_hashseed(777)
    assert first == second
    summary = json.loads(first)
    assert summary["committed"] > 0
    assert summary["world_line"] == 1


def test_chaos_run_identical_across_hash_seeds():
    """A faulted run is still a pure function of its seeds: the fault
    schedule and every downstream consequence (drops, duplicates,
    retransmissions, absorbed duplicates) must not vary with the
    interpreter's hash randomization."""
    first = run_with_hashseed(1, CHAOS_SCENARIO)
    second = run_with_hashseed(777, CHAOS_SCENARIO)
    assert first == second
    summary = json.loads(first)
    assert summary["committed"] > 0
    assert summary["injected"]["dropped"] > 0
    assert summary["injected"]["duplicated"] > 0
    assert summary["injected"]["metadata_outages"] > 0


def test_elastic_run_identical_across_hash_seeds():
    """Partitioned routing is protocol state: placement (stable CRC-32,
    not the salted builtin hash), mid-run scale-out, and every
    downstream not_owner bounce must be byte-identical across
    interpreter hash seeds."""
    first = run_with_hashseed(3, ELASTIC_SCENARIO)
    second = run_with_hashseed(4242, ELASTIC_SCENARIO)
    assert first == second
    summary = json.loads(first)
    assert summary["committed"] > 0
    assert summary["migrations"] > 0


def test_openloop_run_identical_across_hash_seeds():
    """The open-loop SLO report and the full trace fingerprint are
    byte-identical across interpreter hash seeds: Poisson arrivals,
    shed-oldest admission, and a mid-run crash all flow from the config
    seed alone."""
    first = run_with_hashseed(1, OPENLOOP_SCENARIO)
    second = run_with_hashseed(777, OPENLOOP_SCENARIO)
    assert first == second
    summary = json.loads(first)
    assert summary["committed_sessions"] > 0
    assert summary["aborted_sessions"] > 0
    assert summary["commit_latency"]["p999"] >= \
        summary["commit_latency"]["p50"] > 0


def test_replicated_run_identical_across_hash_seeds():
    """Replication chains, the promotion election, and recoverable-
    prefix read routing all sit on the protocol's hot path; a crash
    that resolves via promotion must leave a byte-identical fingerprint
    (including every replica's published watermarks) across interpreter
    hash seeds."""
    first = run_with_hashseed(1, REPLICATION_SCENARIO)
    second = run_with_hashseed(777, REPLICATION_SCENARIO)
    assert first == second
    summary = json.loads(first)
    assert summary["committed"] > 0
    assert summary["reads"] > 0
    assert summary["failed_reads"] == 0
    # The crash resolved via promotion: the world-line never bumped.
    assert len(summary["promotions"]) == 1
    assert summary["world_line"] == 0
