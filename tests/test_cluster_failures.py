"""Tests for real crashes (heartbeat detection, bounded restart) and
cluster membership changes (§4.1, §5.3).  ``cluster.run`` ends with the
run-end audit (``repro.core.audit``)."""

from types import SimpleNamespace

import pytest

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.client import BatchSession, ClientMachine
from repro.cluster.messages import BatchReply
from repro.cluster.stats import ClusterStats
from repro.core.session import RETRY_DELAY
from repro.sim.faults import FaultPlan, Partition
from repro.sim.kernel import Environment, Process
from repro.sim.network import Network
from repro.sim.storage import StorageKind
from repro.workloads import YCSB_A

SMALL = dict(n_workers=3, vcpus=2, n_client_machines=1, client_threads=2,
             batch_size=32, checkpoint_interval=0.05)


class TestCrashRestart:
    def test_crash_detected_and_restarted(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_crash(worker_index=1, at_time=0.3)
        cluster.run(1.0, warmup=0.05)
        [crash] = cluster.manager.detected_crashes
        assert crash["worker_id"] == "worker-1"
        # Detection within the heartbeat timeout plus a check interval.
        assert crash["detected_at"] - 0.3 < \
            cluster.manager.HEARTBEAT_TIMEOUT + 0.05
        assert crash["restarted_at"] is not None
        # The worker is back up and serving.
        worker = cluster.workers[1]
        assert not worker.crashed
        assert worker.endpoint.up

    def test_crash_with_a_flush_in_flight(self, monkeypatch):
        """A crash while the flusher waits on a storage write: the
        write fails into the flusher (its ``except IOError`` branch,
        re-armed by the kernel's ``Process._wait``), the in-flight
        version never persists, and the restarted worker persists
        later versions."""
        waits = []
        wait = Process._wait

        def counted_wait(process, target):
            waits.append(process._name)
            wait(process, target)

        monkeypatch.setattr(Process, "_wait", counted_wait)
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, n_client_machines=2, vcpus=4,
            storage=StorageKind.CLOUD_SSD, seed=7))
        worker = cluster.workers[1]
        now = 0.0
        while not worker._flushing:
            now += 1e-3
            cluster.env.run(until=now)
        [in_flight] = worker.engine.sealed_descriptors()
        worker.crash()
        while worker._flushing:  # the failed write reaches the flusher
            now += 1e-3
            cluster.env.run(until=now)
        assert worker.crashed
        assert worker.engine.persisted_versions() == []
        cluster.run(1.0)  # ends with the run-end audit
        [crash] = cluster.manager.detected_crashes
        assert crash["restarted_at"] is not None
        persisted = worker.engine.persisted_versions()
        assert in_flight not in persisted
        assert persisted and min(persisted) > in_flight
        assert f"flusher:{worker.address}" in waits

    def test_storage_fault_under_a_live_worker(self):
        """The device fails under a flush while the worker stays up and
        is repaired a few ms later: the write fails into the flusher,
        the in-flight version never persists, later versions do, and the
        cut passes the failed one (a later checkpoint holds it)."""
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, n_client_machines=2, vcpus=4,
            storage=StorageKind.CLOUD_SSD, seed=7))
        worker = cluster.workers[1]
        now = 0.0
        while not worker._flushing:
            now += 1e-3
            cluster.env.run(until=now)
        [in_flight] = worker.engine.sealed_descriptors()
        worker.device.fail()
        while worker._flushing:  # the failed write reaches the flusher
            now += 1e-3
            cluster.env.run(until=now)
        assert worker.engine.persisted_versions() == []
        cluster.env.run(until=now + 5e-3)
        worker.device.repair()
        cluster.run(1.0)  # ends with the run-end audit
        assert not worker.crashed
        assert cluster.manager.detected_crashes == []
        persisted = worker.engine.persisted_versions()
        assert in_flight not in persisted
        assert persisted and min(persisted) > in_flight
        cut = cluster.finder.current_cut()
        assert cut.version_of(worker.engine.object_id) > in_flight

    def test_crash_triggers_worldline_recovery(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_crash(worker_index=0, at_time=0.3)
        cluster.run(1.0, warmup=0.05)
        assert cluster.manager.controller.world_line == 1
        [recovery] = cluster.manager.recoveries
        assert recovery["finished_at"] is not None
        assert not cluster.finder.halted
        # Every worker is on the new world-line.
        for worker in cluster.workers:
            assert worker.engine.world_line.current == 1

    def test_committed_state_survives_crash(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_crash(worker_index=2, at_time=0.4)
        stats = cluster.run(1.2, warmup=0.05)
        committed_before = None  # committed ops are never retracted:
        committed = sum(
            s.session.committed_ops for c in cluster.clients
            for s in c.sessions.values())
        aborted = sum(
            s.session.aborted_ops for c in cluster.clients
            for s in c.sessions.values())
        assert committed > 0
        # In-flight work on the dead worker was lost (timeouts/aborts).
        assert aborted > 0
        # Throughput resumes after recovery.
        series = dict(stats.completed.series(0.1))
        assert series.get(1.0, 0) > 0

    def test_restarted_worker_versions_do_not_collide(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        worker = cluster.workers[1]
        cluster.schedule_crash(worker_index=1, at_time=0.3)
        cluster.run(0.8, warmup=0.05)
        # The resume hint pushed the restarted shard past everything the
        # table had seen: no rolled-back token number is ever reissued.
        assert worker.engine.version > \
            cluster.finder.current_cut().version_of("worker-1")

    def test_cluster_keeps_committing_after_crash(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_crash(worker_index=0, at_time=0.3)
        stats = cluster.run(1.2, warmup=0.05)
        committed = dict(stats.committed.series(0.2))
        assert committed.get(1.0, 0) > 0


def _every_session_committed(cluster):
    return all(s.session.committed_ops > 0 for c in cluster.clients
               for s in c.sessions.values())


class TestChaos:
    """Repeated mixed failures: the run-end audit checks every
    session's ledger (never double counted, never invented)."""

    def test_accounting_identity_under_failure_storm(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        for at_time in (0.2, 0.45, 0.47, 0.9):
            cluster.schedule_failure(at_time)
        cluster.schedule_crash(worker_index=1, at_time=0.65)
        cluster.run(1.6, warmup=0.05)
        assert _every_session_committed(cluster)

    def test_progress_resumes_after_every_failure(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        failures = (0.2, 0.5, 0.8)
        for at_time in failures:
            cluster.schedule_failure(at_time)
        stats = cluster.run(1.4, warmup=0.05)
        for at_time in failures:
            # Within 100-400ms of each failure, commits flow again.
            assert stats.committed.total(at_time + 0.1, at_time + 0.4) > 0
        assert cluster.manager.controller.world_line == 3
        assert not cluster.finder.halted


class TestDeliveryHardening:
    """Regression tests for the delivery-failure fixes."""

    def test_crash_before_first_heartbeat_is_detected(self):
        # A worker that dies before ever heartbeating used to be
        # invisible to the monitor (it only tracked workers with a
        # recorded beat); the monitor now seeds the clock for every
        # restartable worker when it first looks.
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cluster.schedule_crash(worker_index=1, at_time=0.001)
        cluster.run(0.6, warmup=0.05)
        [crash] = cluster.manager.detected_crashes
        assert crash["worker_id"] == "worker-1"
        assert crash["detected_at"] < \
            cluster.manager.HEARTBEAT_TIMEOUT + 0.05
        assert crash["restarted_at"] is not None
        assert not cluster.workers[1].crashed

    def test_batch_ids_do_not_leak_across_clusters(self):
        # Batch ids were a BatchSession *class* counter, so a second
        # cluster in the same process started numbering where the first
        # stopped.  Equal seeds must now give equal allocations.
        def run_one():
            cluster = DFasterCluster(DFasterConfig(**SMALL))
            cluster.run(0.3, warmup=0.05)
            return cluster

        first, second = run_one(), run_one()
        for a, b in zip(first.clients, second.clients):
            assert a._batch_ids._next == b._batch_ids._next
            for sa, sb in zip(a.sessions.values(), b.sessions.values()):
                assert (sa.session.last_issued_seqno
                        == sb.session.last_issued_seqno)
                assert sa.session.committed_ops == sb.session.committed_ops

    def test_sweeper_reconciles_straggler_reply(self):
        # The timeout sweeper writes a stuck batch off as aborted; if
        # the reply then straggles in, the ops actually ran and the
        # ledger must move them back to completed.
        stats = ClusterStats()
        session = BatchSession("s", stats)
        request = session.new_batch("worker-0", 32, 16, now=0.0,
                                    reply_to="client-0")
        record = session.records[request.batch_id]
        session.abandon(record, now=0.5)
        assert session.session.aborted_ops == 32
        assert session.session.outstanding_ops == 0
        reply = BatchReply(batch_id=request.batch_id, session_id="s",
                           object_id="worker-0", status="ok",
                           world_line=0, version=1, op_count=32,
                           served_at=0.6)
        session.complete(reply, now=0.6)
        assert session.session.aborted_ops == 0
        assert session.session.reconciled_ops == 32
        assert stats.aborted.total() == 0
        assert stats.completed.total() == 32
        # A duplicate of the straggler changes nothing further.
        session.complete(reply, now=0.7)
        assert session.session.reconciled_ops == 32
        assert stats.completed.total() == 32

    def test_rollback_clears_abandoned_ledger(self):
        # Straggling replies from the *old* world-line describe effects
        # that were rolled back: they must stay aborted.
        stats = ClusterStats()
        session = BatchSession("s", stats)
        request = session.new_batch("worker-0", 32, 16, now=0.0,
                                    reply_to="client-0")
        session.abandon(session.records[request.batch_id], now=0.5)
        session.handle_rollback(1, None, now=0.6)
        reply = BatchReply(batch_id=request.batch_id, session_id="s",
                           object_id="worker-0", status="ok",
                           world_line=0, version=1, op_count=32,
                           served_at=0.7)
        session.complete(reply, now=0.7)
        assert session.session.aborted_ops == 32
        assert session.session.reconciled_ops == 0

    def test_duplicate_reply_accounted_once(self):
        stats = ClusterStats()
        session = BatchSession("s", stats)
        request = session.new_batch("worker-0", 32, 16, now=0.0,
                                    reply_to="client-0")
        reply = BatchReply(batch_id=request.batch_id, session_id="s",
                           object_id="worker-0", status="ok",
                           world_line=0, version=1, op_count=32,
                           served_at=0.1)
        session.complete(reply, now=0.1)
        session.complete(reply, now=0.1)
        assert session.session.outstanding_ops == 0
        assert stats.completed.total() == 32

    def test_straggler_reconciliation_resets_backoff(self):
        # One recovery window must not permanently inflate a session's
        # RETRY backoff: a straggling "ok" reply for an abandoned batch
        # proves the worker is serving again, so the retry state resets
        # along with the ledger reconciliation.
        stats = ClusterStats()
        session = BatchSession("s", stats)
        request = session.new_batch("worker-0", 32, 16, now=0.0,
                                    reply_to="client-0")
        session.session.retry_attempts = 5  # inflated during the outage
        session.abandon(session.records[request.batch_id], now=0.5)
        reply = BatchReply(batch_id=request.batch_id, session_id="s",
                           object_id="worker-0", status="ok",
                           world_line=0, version=1, op_count=32,
                           served_at=0.6)
        session.complete(reply, now=0.6)
        assert session.session.reconciled_ops == 32
        assert session.session.retry_attempts == 0

    def test_post_recovery_session_returns_to_base_retry_delay(self):
        # End to end through _on_reply: after the straggler reset, the
        # next RETRY backs off from the base delay again instead of the
        # exponent the outage left behind.
        env = Environment()
        net = Network(env)
        net.register("worker-0")
        machine = ClientMachine(env, net, "client-0", ["worker-0"],
                                YCSB_A, ClusterStats(), n_threads=1, rng=1)
        session = next(iter(machine.sessions.values()))
        request = session.new_batch("worker-0", 32, 16, now=0.0,
                                    reply_to="client-0")
        session.session.retry_attempts = 6  # a full recovery window of RETRYs
        session.abandon(session.records[request.batch_id], now=0.0)
        straggler = BatchReply(batch_id=request.batch_id,
                               session_id=session.session_id,
                               object_id="worker-0", status="ok",
                               world_line=0, version=1, op_count=32)
        machine._on_reply(SimpleNamespace(payload=straggler))
        retry_request = session.new_batch("worker-0", 32, 16, now=env.now,
                                          reply_to="client-0")
        retry = BatchReply(batch_id=retry_request.batch_id,
                           session_id=session.session_id,
                           object_id="worker-0", status="retry",
                           world_line=0)
        machine._on_reply(SimpleNamespace(payload=retry))
        # Base-exponent backoff lands (jittered) within one RETRY_DELAY;
        # the inflated exponent would pause ~0.05s or more.
        assert session.session.retry_attempts == 1
        assert session.session.paused_until - env.now <= RETRY_DELAY

    def test_stop_quiesces_the_simulation(self):
        # stop() must also stop the timeout sweeper; before the fix it
        # rescheduled itself forever and the sim never drained.
        env = Environment()
        net = Network(env)
        net.register("worker-0")  # a silent worker: never replies
        machine = ClientMachine(env, net, "client-0", ["worker-0"],
                                YCSB_A, ClusterStats(), batch_size=32,
                                n_threads=2, rng=1)
        env.run(until=0.5)
        machine.stop()
        env.run(until=5.0)
        assert env.peek() is None  # run to quiescence: heap drained

    def test_rollback_command_retransmitted_through_partition(self):
        # Sever the manager from worker-1 across the rollback; the
        # per-worker ack timeout must re-send the command after the
        # partition heals, and recovery must still finish.
        # Short enough that missing heartbeats do not look like a
        # worker crash, long enough to eat the first command + ack.
        plan = FaultPlan(5, partitions=[
            Partition(group_a=("cluster-manager",),
                      group_b=("worker-1",),
                      start=0.19, end=0.24),
        ])
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        cluster.schedule_failure(0.2)
        cluster.run(0.8, warmup=0.05)
        assert cluster.manager.retransmissions > 0
        [recovery] = cluster.manager.recoveries
        assert recovery["finished_at"] is not None
        assert not cluster.finder.halted
        for worker in cluster.workers:
            assert worker.engine.world_line.current == 1

    def test_anti_entropy_rebroadcasts_unchanged_cut(self):
        # With checkpoints disabled the cut never changes, but the
        # finder still re-broadcasts it periodically so a worker that
        # lost a broadcast converges.
        cluster = DFasterCluster(DFasterConfig(**SMALL),
                                 checkpoints_enabled=False)
        cluster.run(0.4, warmup=0.05)
        interval = cluster.finder_service.ANTI_ENTROPY_INTERVAL
        assert cluster.finder_service.broadcasts >= int(0.4 / interval) - 1

    def test_duplicate_batch_requests_not_double_applied(self):
        # Duplicating every client->worker request must not change the
        # per-session ledger: workers answer duplicates from the reply
        # cache instead of re-executing.
        from repro.sim.faults import LinkFault
        plan = FaultPlan(9, links=[
            LinkFault(src="client-*", dst="worker-*", duplicate=1.0),
        ])
        cluster = DFasterCluster(DFasterConfig(**SMALL), faults=plan)
        cluster.run(0.5, warmup=0.05)
        assert plan.injected["duplicated"] > 0
        assert sum(w.duplicate_batches for w in cluster.workers) > 0
        assert _every_session_committed(cluster)

    def test_duplicated_seal_reports_do_not_crash_hybrid_finder(self):
        # Every worker->finder message duplicated: without the finder
        # service's per-object seal high-watermark, the second copy of
        # any SealReport raises "duplicate commit" inside the hybrid
        # finder's precedence graph and kills the receive loop.
        from repro.sim.faults import LinkFault
        plan = FaultPlan(10, links=[
            LinkFault(src="worker-*", dst="dpr-finder", duplicate=1.0),
        ])
        cluster = DFasterCluster(DFasterConfig(**SMALL), finder="hybrid",
                                 faults=plan)
        cluster.run(0.5, warmup=0.05)
        assert plan.injected["duplicated"] > 0
        assert cluster.finder_service.stale_seals > 0
        # The filter drops only the redundant copies: the exact graph
        # still sees every first copy, so the cut keeps advancing.
        cut = cluster.finder.current_cut()
        assert all(cut.version_of(w.address) > 0 for w in cluster.workers)


class TestMembership:
    def test_add_worker_joins_and_serves(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))

        def grow():
            yield 0.2
            cluster.add_worker()

        cluster.env.process(grow())
        cluster.run(0.8, warmup=0.05)
        assert len(cluster.workers) == 4
        newcomer = cluster.workers[3]
        assert newcomer.batches_served > 0
        # The newcomer fast-forwarded to Vmax and is inside the cut.
        assert cluster.finder.current_cut().version_of("worker-3") > 0

    def test_cut_advances_past_join(self):
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        cuts = {}

        def grow():
            yield 0.2
            cuts["before"] = cluster.finder.current_cut()
            cluster.add_worker()
            yield 0.4
            cuts["after"] = cluster.finder.current_cut()

        cluster.env.process(grow())
        cluster.run(0.8, warmup=0.05)
        assert cuts["after"].version_of("worker-0") > \
            cuts["before"].version_of("worker-0")


class TestNestedFailureRestart:
    def test_restart_adopts_newest_plan_after_nested_failure(self):
        """§7.4: a second failure during the bounded restart window
        must not restart the worker onto the first (stale) plan's
        world-line.  Driven by hand so the nesting is exact."""
        cluster = DFasterCluster(DFasterConfig(**SMALL))
        manager = cluster.manager
        worker = cluster.workers[1]
        worker.crash()
        handler = manager._handle_crash("worker-1")
        next(handler)        # metadata access for the first plan
        handler.send(None)   # plan sealed (world-line 1); restart pending
        # A second failure lands while the restart is in flight.
        recovery = manager._begin_recovery()
        next(recovery)       # metadata access for the nested plan
        try:
            recovery.send(None)  # world-line 2 planned and broadcast
        except StopIteration:
            pass
        try:
            handler.send(None)   # the bounded restart fires
        except StopIteration:
            pass
        assert manager.controller.world_line == 2
        # The restarted worker is on the newest world-line, not the
        # superseded plan's.
        assert worker.engine.world_line.current == 2
        assert not worker.crashed
