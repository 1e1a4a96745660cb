"""Integration tests: whole clusters on the simulated testbed.

These run real protocol traffic end to end — clients, network, workers,
finder service, cluster manager — at small scale so they stay fast.
``cluster.run`` ends with the run-end audit (``repro.core.audit``), so
every scenario here is also checked against DPR's invariants.
The ``engine="faster"`` runs use real FasterKV shards, exercising the
full data path (hash chains, HybridLog, CPR) across the network.
"""

import pytest

from repro.baselines import (
    CassandraCluster,
    CommitLogMode,
    RecoverabilityLevel,
    supported_levels,
)
from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.cluster.messages import BatchRequest
from repro.workloads import YCSB_A, ycsb

SMALL = dict(n_workers=2, vcpus=2, n_client_machines=1, client_threads=2,
             batch_size=32, checkpoint_interval=0.05)


def _session_total(cluster, counter):
    """One ``core.session.Session`` ledger counter summed over the fleet."""
    return sum(getattr(s.session, counter) for c in cluster.clients
               for s in c.sessions.values())


class TestDFasterModeled:
    def test_ops_complete_and_commit(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        stats = cluster.run(0.4, warmup=0.1)
        assert stats.throughput(start=0.1, end=0.4, duration=0.3) > 0
        committed = _session_total(cluster, "committed_ops")
        assert committed > 0

    def test_no_commits_without_checkpoints(self):
        cluster = DFasterCluster(DFasterConfig(
            checkpoints_enabled=False, **SMALL))
        cluster.run(0.3, warmup=0.1)
        assert _session_total(cluster, "committed_ops") == 0

    def test_commit_latency_tracks_interval(self):
        fast = DFasterCluster(DFasterConfig(**{**SMALL,
                                               "checkpoint_interval": 0.02}))
        slow = DFasterCluster(DFasterConfig(**{**SMALL,
                                               "checkpoint_interval": 0.2}))
        fast_stats = fast.run(0.5, warmup=0.1)
        slow_stats = slow.run(0.8, warmup=0.1)
        assert fast_stats.commit_latency.percentile(50) < \
            slow_stats.commit_latency.percentile(50)

    def test_failure_aborts_uncommitted_only(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_failure(0.2)
        stats = cluster.run(0.5, warmup=0.05)
        aborted = _session_total(cluster, "aborted_ops")
        committed = _session_total(cluster, "committed_ops")
        assert aborted > 0
        assert committed > 0
        # Post-recovery the cluster keeps completing operations.
        series = dict(stats.completed.series(0.1))
        assert series.get(0.4, 0) > 0

    def test_recovery_records_bounded_duration(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_failure(0.2)
        cluster.run(0.6, warmup=0.05)
        [recovery] = cluster.manager.recoveries
        assert recovery["finished_at"] is not None
        assert recovery["finished_at"] - recovery["started_at"] < 0.5

    def test_nested_failures(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_failure(0.2)
        cluster.schedule_failure(0.22)
        cluster.run(0.6, warmup=0.05)
        assert len(cluster.manager.recoveries) == 2
        assert cluster.manager.controller.world_line == 2
        assert all(r["finished_at"] is not None
                   for r in cluster.manager.recoveries)
        # DPR progress resumed after the nested recovery.
        assert not cluster.finder.halted

    @pytest.mark.parametrize("finder", ["exact", "approximate", "hybrid"])
    def test_all_finders_drive_commits(self, finder):
        cluster = DFasterCluster(DFasterConfig(finder=finder, **SMALL))
        cluster.run(0.4, warmup=0.1)
        assert _session_total(cluster, "committed_ops") > 0

    def test_colocated_mode_runs(self):
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, colocated=True,
            colocation_local_fraction=0.5, batch_size=32,
            checkpoint_interval=0.05))
        stats = cluster.run(0.3, warmup=0.05)
        assert stats.throughput(start=0.05, end=0.3, duration=0.25) > 0

    def test_colocated_mode_rejects_add_worker(self):
        # A joined worker would have no co-located driver to drain its
        # inbox: refuse rather than build a dead host.
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, colocated=True, batch_size=32))
        with pytest.raises(ValueError, match="add_worker"):
            cluster.add_worker()
        assert len(cluster.workers) == 2


class TestDFasterFunctional:
    """Real FasterKV engines behind the wire protocol."""

    def _functional_cluster(self):
        return DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05,
        ))

    def test_explicit_ops_execute_and_return_results(self):
        cluster = self._functional_cluster()
        env, net = cluster.env, cluster.net
        client = net.register("tester")
        results = {}

        def driver():
            request = BatchRequest(
                batch_id=1, session_id="t/s0", reply_to="tester",
                world_line=0, min_version=0, first_seqno=1,
                op_count=3, write_count=2,
                ops=(("set", "k", 10), ("incr", "k", 5), ("get", "k")),
            )
            net.send("tester", "worker-0", request, size_ops=3)
            message = yield client.inbox
            results["reply"] = message.payload

        env.process(driver())
        env.run(until=0.2)
        reply = results["reply"]
        assert reply.status == "ok"
        assert reply.results[2] == 15

    def test_state_survives_checkpoint_and_rollback(self):
        cluster = self._functional_cluster()
        env, net = cluster.env, cluster.net
        client = net.register("tester")
        results = {}

        def driver():
            def send(batch_id, first_seqno, ops, writes):
                request = BatchRequest(
                    batch_id=batch_id, session_id="t/s0",
                    reply_to="tester", world_line=0, min_version=0,
                    first_seqno=first_seqno, op_count=len(ops),
                    write_count=writes, ops=tuple(ops),
                )
                net.send("tester", "worker-0", request, size_ops=len(ops))

            send(1, 1, [("set", "a", "durable")], 1)
            yield client.inbox
            # Wait past several checkpoints + finder ticks so it commits,
            # then write *just before* the failure — inside the current
            # checkpoint interval, so the write is still uncommitted when
            # the cut freezes.
            yield 0.285 - env.now
            send(2, 2, [("set", "a", "volatile")], 1)
            yield client.inbox
            results["ok"] = True

        env.process(driver())
        cluster.schedule_failure(0.295)
        env.run(until=0.6)
        assert results["ok"]
        engine = cluster.workers[0].engine
        assert engine.get("a") == "durable"
        assert engine.world_line.current == 1
        cluster.audit()


class TestDRedis:
    def test_plain_mode_serves(self):
        cluster = DRedisCluster(DRedisConfig(
            n_shards=2, mode=RedisMode.PLAIN, batch_size=16,
            n_client_machines=1, client_threads=1))
        stats = cluster.run(0.2, warmup=0.05)
        assert stats.throughput(start=0.05, end=0.2, duration=0.15) > 0

    def test_dpr_mode_commits(self):
        cluster = DRedisCluster(DRedisConfig(
            n_shards=2, mode=RedisMode.DPR, batch_size=16,
            checkpoint_interval=0.05,
            n_client_machines=1, client_threads=1))
        cluster.run(0.4, warmup=0.05)
        committed = _session_total(cluster, "committed_ops")
        assert committed > 0

    def test_dpr_failure_recovery(self):
        cluster = DRedisCluster(DRedisConfig(
            n_shards=2, mode=RedisMode.DPR, batch_size=16,
            checkpoint_interval=0.05,
            n_client_machines=1, client_threads=1))
        cluster.schedule_failure(0.2)
        cluster.run(0.6, warmup=0.05)
        aborted = _session_total(cluster, "aborted_ops")
        assert aborted >= 0  # rollback happened without deadlock
        assert cluster.manager.controller.world_line == 1
        assert not cluster.finder.halted

    def test_failure_requires_dpr_mode(self):
        cluster = DRedisCluster(DRedisConfig(mode=RedisMode.PLAIN))
        with pytest.raises(RuntimeError):
            cluster.schedule_failure(0.1)


class SmallCassandra(CassandraCluster):
    N_NODES = 2
    N_CLIENT_MACHINES = 1
    CLIENT_THREADS = 1
    BATCH_SIZE = 64


class TestCassandra:
    def test_periodic_serves(self):
        cluster = SmallCassandra(CommitLogMode.PERIODIC, YCSB_A)
        stats = cluster.run(0.3, warmup=0.1)
        assert stats.throughput(start=0.1, end=0.3, duration=0.2) > 0

    def test_group_sync_slower_and_higher_latency(self):
        def run(mode):
            cluster = SmallCassandra(mode, YCSB_A)
            stats = cluster.run(0.4, warmup=0.1)
            return (stats.throughput(start=0.1, end=0.4, duration=0.3),
                    stats.operation_latency.percentile(50))

        periodic_tput, periodic_lat = run(CommitLogMode.PERIODIC)
        group_tput, group_lat = run(CommitLogMode.GROUP)
        assert group_tput < periodic_tput
        assert group_lat > periodic_lat

    def test_support_matrix(self):
        assert RecoverabilityLevel.DPR not in supported_levels("cassandra")
        assert RecoverabilityLevel.SYNC not in supported_levels("d-faster")
        assert RecoverabilityLevel.DPR in supported_levels("d-redis")
