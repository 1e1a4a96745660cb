"""Elasticity under chaos: §5.3 transfers inside the fault model.

A live migration window is the protocol's most delicate moment — the
partition is briefly owner-less, the old owner bounces stragglers, and
the client re-resolves ownership — so these scenarios overlap that
window with seeded link faults (drops, duplicates, reorder).  The DPR
guarantee is checked by ``repro.core.audit``: ``PartitionedClient``
audits every rollback's surviving prefix and ``cluster.run`` ends with
the server audit.  The tests assert that duplicated/stale replies are
never misattributed and that each batch is served exactly once.
"""

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.elastic import ElasticCoordinator, PartitionedClient
from repro.core.session import RollbackError
from repro.sim.faults import FaultPlan, LinkFault


def _rig(plan, seed=1234):
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=0,
        engine="faster", checkpoint_interval=0.05, seed=seed,
        faults=plan,
    ))
    coordinator = ElasticCoordinator(
        cluster.env, cluster.metadata, cluster.workers, partition_count=8)
    client = PartitionedClient(cluster.env, cluster.net, "pclient",
                               cluster.metadata, coordinator)
    return cluster, coordinator, client


def _other(owner):
    return "worker-1" if owner == "worker-0" else "worker-0"


class TestMigrationUnderChaos:
    def test_all_batches_served_exactly_once_through_faulted_window(self):
        plan = FaultPlan(707, links=[
            LinkFault(drop=0.02, duplicate=0.05, reorder=0.1),
        ])
        cluster, coordinator, client = _rig(plan)
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        replies = []

        def driver():
            for _ in range(40):
                reply = yield from client.request(
                    "k", [("incr", "k", 1)], 1)
                replies.append(reply)
                yield 0.01

        def migration():
            yield 0.1
            yield from coordinator.migrate(partition, _other(old))

        cluster.env.process(driver())
        cluster.env.process(migration())
        cluster.run(2.0)
        # The plan really injected faults...
        assert plan.injected["dropped"] > 0
        assert plan.injected["duplicated"] > 0
        # ...yet every batch was served exactly once: within each
        # owner's segment the counter climbs by exactly one per batch
        # (a duplicated delivery that re-executed would skip values;
        # ownership transfer moves serving, not data, so the counter
        # restarts on the new shard).
        assert len(replies) == 40
        assert all(reply.status == "ok" for reply in replies)
        segments = {}
        for reply in replies:
            segments.setdefault(reply.object_id, []).append(
                reply.results[0])
        assert set(segments) == {old, _other(old)}
        for values in segments.values():
            assert values == list(range(1, len(values) + 1))
        versions = [entry["version"] for entry in client.history]
        assert versions == sorted(versions)

    def test_stale_replies_dropped_not_misattributed(self):
        plan = FaultPlan(707, links=[
            LinkFault(duplicate=0.2, reorder=0.25),
        ])
        cluster, coordinator, client = _rig(plan)
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        replies = []

        def driver():
            for index in range(30):
                reply = yield from client.request(
                    "k", [("set", "k", index)], 1)
                replies.append((reply, client._batch_ids._next))
                yield 5e-3

        def migration():
            yield 0.05
            yield from coordinator.migrate(partition, _other(old))

        cluster.env.process(driver())
        cluster.env.process(migration())
        cluster.run(2.0)
        assert plan.injected["duplicated"] > 0
        assert len(replies) == 30
        # Heavy duplication put stale replies on the inbox; matching by
        # batch id means each returned reply answers the attempt that
        # was actually awaited.
        for reply, last_batch in replies:
            assert reply.batch_id <= last_batch
            assert reply.status == "ok"

    def test_dpr_guarantee_holds_under_chaos_with_failure(self):
        plan = FaultPlan(707, links=[
            LinkFault(drop=0.02, duplicate=0.05, reorder=0.1),
        ])
        cluster, coordinator, client = _rig(plan)
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        outcome = {}

        def driver():
            try:
                for index in range(60):
                    yield from client.request("k", [("set", "k", index)], 1)
                    yield 0.01
            except RollbackError as error:
                outcome["error"] = error

        def migration():
            yield 0.1
            yield from coordinator.migrate(partition, _other(old))

        cluster.env.process(driver())
        cluster.env.process(migration())
        cluster.schedule_failure(0.3)
        cluster.run(2.0)
        assert coordinator.migrations_completed == 1
        # The rollback landed, and the client audited its surviving
        # prefix, with the fault plan active and the partition
        # mid-migration around the failure.
        assert client.rollbacks == [outcome["error"]]


class TestPromotionUnderChaos:
    """The replication tentpole inside the fault model: an owner crash
    lands mid-batch while the links drop, duplicate and reorder — the
    most hostile window for the promotion decision and for the stale
    messages that survive it."""

    def _rig(self, plan, seed=4321, replication_factor=1):
        from repro.cluster.client import ReplicaReadClient
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05, seed=seed,
            faults=plan, replication_factor=replication_factor))
        elastic = cluster.enable_elasticity(partition_count=8,
                                            lease_duration=0.5)
        client = PartitionedClient(cluster.env, cluster.net, "pclient",
                                   cluster.metadata, elastic)
        reader = ReplicaReadClient(cluster.env, cluster.net, "rclient",
                                   cluster.metadata,
                                   [w.address for w in cluster.workers],
                                   rng=31)
        cluster.replication.register_client(client)
        return cluster, client, reader

    def _writer(self, cluster, client, log):
        def run():
            n = 0
            while True:
                key = "chaos-%d" % (n % 8)
                try:
                    yield from client.request(key, [("set", key, n)], 1)
                    log.append(("ok", n, cluster.env.now))
                except RollbackError as error:
                    log.append(("rolled_back", error, cluster.env.now))
                    client.session.acknowledge_rollback()
                n += 1
        return run

    def test_owner_crash_mid_batch_promotes_with_zero_bump(self):
        plan = FaultPlan(606, links=[
            LinkFault(drop=0.02, duplicate=0.05, reorder=0.1),
        ])
        cluster, client, reader = self._rig(plan)
        log = []
        cluster.env.process(self._writer(cluster, client, log)())
        cluster.env.process(reader.run_closed_loop(batch_keys=4))
        cluster.schedule_crash(0, at_time=0.4)
        cluster.run(2.0)
        assert plan.injected["dropped"] > 0
        assert plan.injected["duplicated"] > 0
        # The caught-up replica took over: zero world-line bump, no
        # session ever observed a rollback, writes kept flowing.
        [promotion] = cluster.manager.promotions
        assert promotion["world_line"] == 0
        assert cluster.manager.controller.world_line == 0
        assert not [entry for entry in log if entry[0] == "rolled_back"]
        post_crash = [entry for entry in log
                      if entry[0] == "ok" and entry[2] > 1.0]
        assert post_crash
        assert reader.reads_failed == 0

    def test_lagging_replica_forces_rollback_fallback(self):
        plan = FaultPlan(606, links=[
            LinkFault(drop=0.02, duplicate=0.05, reorder=0.1),
        ])
        cluster, client, reader = self._rig(plan)
        log = []
        node = cluster.replication.chains["worker-0"][0]

        def lag():
            # Pause right before the crash so the replica's applied
            # watermark misses the required cut, then resume well after
            # the restart: the buffered tail plus the new epoch's reset
            # entry bring it back in sync on the new world-line.
            yield 0.35
            node.apply_paused = True
            yield 0.45
            node.resume_apply()

        cluster.env.process(self._writer(cluster, client, log)())
        cluster.env.process(lag())
        cluster.schedule_crash(0, at_time=0.4)
        cluster.run(2.0)
        # No qualified replica: the §4.1 fallback ran unchanged.
        assert cluster.manager.promotions == []
        assert cluster.manager.promotion_fallbacks == 1
        assert cluster.manager.controller.world_line == 1
        assert cluster.manager.recoveries[-1]["finished_at"] is not None
        # The resumed replica followed the epoch reset onto the new
        # world-line instead of going stale.
        assert not node.stale
        assert node.engine.world_line.current == 1
        # The restarted owner serves again on the new world-line.
        post_crash = [entry for entry in log
                      if entry[0] == "ok" and entry[2] > 1.2]
        assert post_crash

    def test_worldline_bump_after_promotion_reaches_promoted_node(self):
        """The heartbeat-monitor/promotion race, run to the end: after
        the promoted replica replaces the dead owner in the membership
        list, a later world-line bump must deliver its RollbackCommand
        to the *promoted* address (not wedge retransmitting to the dead
        one) and the promoted engine must land on the new world-line."""
        plan = FaultPlan(606, links=[
            LinkFault(drop=0.02, duplicate=0.05, reorder=0.1),
        ])
        cluster, client, reader = self._rig(plan)
        log = []
        cluster.env.process(self._writer(cluster, client, log)())
        cluster.env.process(reader.run_closed_loop(batch_keys=4))
        cluster.schedule_crash(0, at_time=0.4)
        cluster.schedule_failure(1.0)
        cluster.run(2.5)
        [promotion] = cluster.manager.promotions
        promoted = cluster.manager.worker_registry[promotion["promoted"]]
        # The post-promotion recovery completed: nobody waited forever
        # on the decommissioned address, and the promoted node followed
        # the bump like any other member.
        assert cluster.manager.controller.world_line == 1
        assert cluster.manager.recoveries[-1]["finished_at"] is not None
        assert promoted.engine.world_line.current == 1
        for worker in cluster.manager.worker_registry.values():
            assert worker.engine.world_line.current == 1
        # Serving resumed after the second recovery too.
        post_bump = [entry for entry in log
                     if entry[0] == "ok" and entry[2] > 1.5]
        assert post_bump
