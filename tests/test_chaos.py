"""Chaos fault-injection tests: DESIGN §6 invariants under adversity.

Each scenario runs a whole cluster under a seeded :class:`FaultPlan`
and then checks the invariants that must survive *any* delivery
behaviour the fault model can produce:

- **cut closure / monotonicity / durability order** — via
  ``audit_deployment`` (the runtime §4.3 audit);
- **prefix recoverability (accounting identity)** — every issued op is
  committed, aborted, or still tracked; never double counted;
- **world-line isolation** — no shard runs ahead of the durably
  published world-line once recovery has finished;
- **progress** — commits keep flowing after every fault window.

Coverage is asserted through ``plan.injected``: a scenario that claims
to test drops must actually have dropped something.

Pre-hardening failure demonstration: scenario ``seed 404``
(``test_partition_over_recovery``) deterministically *fails* against
the pre-hardening protocol stack — the partition eats the manager's
only ``RollbackCommand`` to worker-1, recovery never completes, the
finder stays halted, and no commits flow after the failure.  With
command retransmission it passes.  (The duplication scenario likewise
fails pre-hardening with a violated accounting identity: duplicated
requests were re-executed and double-replied.)
"""

import pytest

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.core.audit import audit_deployment
from repro.sim.faults import (
    FaultPlan,
    LinkFault,
    MetadataOutage,
    MetadataSpike,
    Partition,
)

SMALL = dict(n_workers=3, vcpus=2, n_client_machines=1, client_threads=2,
             batch_size=32, checkpoint_interval=0.05)


def assert_audit_clean(cluster):
    shards = getattr(cluster, "workers", None) or cluster.proxies
    passed = audit_deployment(
        cluster.finder, {shard.address: shard.engine for shard in shards})
    assert passed == ["monotonicity", "durability-order", "cut",
                      "world-lines"]


def assert_accounting(cluster, require_commits=True):
    """Prefix recoverability, client view: ops are never double counted
    and (reconciliation aside) never invented."""
    for client in cluster.clients:
        for batch_session in client.sessions.values():
            session = batch_session.session  # the core DPR session
            issued = session.last_issued_seqno
            tracked = session.committed_ops + session.aborted_ops
            in_flight = sum(r.op_count for r in session.window.values())
            assert tracked + in_flight <= issued
            assert session.committed_ops >= 0
            assert session.aborted_ops >= 0
            if require_commits:
                assert session.committed_ops > 0


def assert_world_line_agreement(cluster):
    if cluster.finder.halted:
        return  # a recovery was still in flight at end of run
    published = cluster.finder.table.read_world_line()
    shards = getattr(cluster, "workers", None) or cluster.proxies
    for shard in shards:
        assert shard.engine.world_line.current <= published


# ---------------------------------------------------------------------------
# D-FASTER scenarios: one fault shape per seed, then the kitchen sink.
# ---------------------------------------------------------------------------


class TestDFasterChaos:
    def test_seed_101_message_drop(self):
        plan = FaultPlan(101, links=[LinkFault(drop=0.02)])
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        cluster.schedule_failure(0.3)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["dropped"] > 0
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert_world_line_agreement(cluster)
        # Progress: commits flow again after the failure + drop noise.
        assert stats.committed.total(0.5, 1.0) > 0

    def test_seed_202_message_duplication(self):
        plan = FaultPlan(202, links=[LinkFault(duplicate=0.1)])
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        cluster.schedule_failure(0.3)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["duplicated"] > 0
        assert sum(w.duplicate_batches for w in cluster.workers) > 0
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert_world_line_agreement(cluster)
        assert stats.committed.total(0.5, 1.0) > 0

    def test_seed_303_message_reorder(self):
        plan = FaultPlan(303, links=[
            LinkFault(reorder=0.3, reorder_delay=1e-3),
        ])
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        cluster.schedule_failure(0.3)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["reordered"] > 0
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert_world_line_agreement(cluster)
        assert stats.committed.total(0.5, 1.0) > 0

    def test_seed_404_partition_over_recovery(self):
        # The demonstrably-failing-pre-hardening seed: the partition
        # swallows the manager's RollbackCommand to worker-1 (and any
        # ack), so without retransmission recovery wedges with the
        # finder halted and commits never resume.
        plan = FaultPlan(404, partitions=[
            Partition(group_a=("cluster-manager",), group_b=("worker-1",),
                      start=0.29, end=0.34),
        ])
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        cluster.schedule_failure(0.3)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["partitioned"] > 0
        assert cluster.manager.retransmissions > 0
        assert not cluster.finder.halted
        [recovery] = cluster.manager.recoveries
        assert recovery["finished_at"] is not None
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert_world_line_agreement(cluster)
        assert stats.committed.total(0.5, 1.0) > 0

    def test_seed_505_metadata_outage_forces_approximate_fallback(self):
        # A 40ms metadata stall exceeds the 20ms failover threshold:
        # the hybrid finder's coordinator fails over and serves its
        # durable approximate cut (§3.4) — progress, not corruption.
        plan = FaultPlan(505, metadata_outages=[MetadataOutage(0.2, 0.24)],
                         metadata_spikes=[MetadataSpike(0.4, 0.45, 5e-3)])
        cluster = DFasterCluster(DFasterConfig(**SMALL), finder="hybrid",
                                 faults=plan)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["metadata_outages"] > 0
        assert plan.injected["metadata_spikes"] > 0
        assert cluster.finder_service.coordinator_failovers >= 1
        assert cluster.finder.coordinator_crashes >= 1
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert stats.committed.total(0.5, 1.0) > 0

    def test_seed_606_kitchen_sink(self):
        # Every fault shape at once, plus a world-line bump and a real
        # process crash.
        plan = FaultPlan(
            606,
            links=[LinkFault(drop=0.01, duplicate=0.02, reorder=0.1,
                             reorder_delay=0.5e-3)],
            partitions=[Partition(group_a=("client-*",),
                                  group_b=("worker-2",),
                                  start=0.58, end=0.66)],
            metadata_outages=[MetadataOutage(0.7, 0.73)],
        )
        cluster = DFasterCluster(DFasterConfig(**SMALL), finder="hybrid",
                                 faults=plan)
        cluster.schedule_failure(0.3)
        cluster.schedule_crash(worker_index=1, at_time=0.9)
        stats = cluster.run(1.6, warmup=0.05)
        for shape in ("dropped", "duplicated", "reordered", "partitioned",
                      "metadata_outages"):
            assert plan.injected[shape] > 0, shape
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert_world_line_agreement(cluster)
        # Progress after the last disturbance.
        assert stats.committed.total(1.2, 1.6) > 0
        # Recovery completed for every world-line bump that finished.
        for recovery in cluster.manager.recoveries:
            assert recovery["finished_at"] is not None


# ---------------------------------------------------------------------------
# D-Redis: the same protocol services behind proxies, no heartbeats.
# ---------------------------------------------------------------------------

DREDIS_SMALL = dict(n_shards=3, n_client_machines=1, client_threads=2,
                    batch_size=32, checkpoint_interval=0.1,
                    mode=RedisMode.DPR)


class TestDRedisChaos:
    def test_drop_and_duplicate_with_recovery(self):
        plan = FaultPlan(707, links=[LinkFault(drop=0.02, duplicate=0.05)])
        cluster = DRedisCluster(DRedisConfig(**DREDIS_SMALL), faults=plan)
        cluster.schedule_failure(0.3)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["dropped"] > 0
        assert plan.injected["duplicated"] > 0
        assert sum(p.duplicate_batches for p in cluster.proxies) > 0
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert_world_line_agreement(cluster)
        assert stats.committed.total(0.5, 1.0) > 0

    def test_partition_over_recovery(self):
        plan = FaultPlan(808, partitions=[
            Partition(group_a=("cluster-manager",), group_b=("proxy-0",),
                      start=0.29, end=0.35),
        ])
        cluster = DRedisCluster(DRedisConfig(**DREDIS_SMALL), faults=plan)
        cluster.schedule_failure(0.3)
        stats = cluster.run(1.0, warmup=0.05)
        assert plan.injected["partitioned"] > 0
        assert cluster.manager.retransmissions > 0
        assert not cluster.finder.halted
        assert_audit_clean(cluster)
        assert_accounting(cluster)
        assert stats.committed.total(0.5, 1.0) > 0


# ---------------------------------------------------------------------------
# Reproducibility: a chaos run is a pure function of its two seeds.
# ---------------------------------------------------------------------------


class TestChaosDeterminism:
    @staticmethod
    def _plan():
        return FaultPlan(
            909,
            links=[LinkFault(drop=0.01, duplicate=0.02, reorder=0.1)],
            partitions=[Partition(group_a=("client-*",),
                                  group_b=("worker-0",),
                                  start=0.4, end=0.45)],
            metadata_outages=[MetadataOutage(0.6, 0.63)],
        )

    @staticmethod
    def _fingerprint(cluster, plan, stats):
        sessions = {
            sid: (s.session.committed_ops, s.session.aborted_ops,
                  s.session.reconciled_ops, s.session.last_issued_seqno)
            for client in cluster.clients
            for sid, s in client.sessions.items()
        }
        return (
            sessions,
            dict(plan.injected),
            cluster.manager.retransmissions,
            cluster.manager.controller.world_line,
            tuple(stats.completed.series(0.1)),
            tuple(stats.committed.series(0.1)),
            tuple(stats.aborted.series(0.1)),
        )

    def test_same_seeds_same_run(self):
        def run_once():
            plan = self._plan()
            cluster = DFasterCluster(DFasterConfig(**SMALL),
                                     finder="hybrid", faults=plan)
            cluster.schedule_failure(0.3)
            stats = cluster.run(1.0, warmup=0.05)
            return self._fingerprint(cluster, plan, stats)

        assert run_once() == run_once()

    def test_replayed_plan_equals_fresh_plan(self):
        plan = self._plan()
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        stats = cluster.run(0.5, warmup=0.05)
        first = self._fingerprint(cluster, plan, stats)

        replayed = plan.replay()
        cluster2 = DFasterCluster(DFasterConfig(**SMALL), faults=replayed)
        stats2 = cluster2.run(0.5, warmup=0.05)
        assert self._fingerprint(cluster2, replayed, stats2) == first
