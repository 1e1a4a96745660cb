"""Replication chains: held replies, prefix reads, and promotion.

The tentpole invariant under test: because a primary withholds every
client "ok" until all replicas ack the batch's log entry, a caught-up
replica provably holds everything any client was ever told succeeded —
so an owner crash promotes the replica and **keeps the world-line**,
instead of bumping it and rolling every survivor back (§4.1).  The
fallback stays intact: no qualified replica means the old path runs
unchanged.  Recoverable-prefix reads ride on the same chains and must
never return a value a rollback later erases.
"""

import pytest

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.client import ReplicaReadClient
from repro.cluster.dredis import DRedisCluster, DRedisConfig
from repro.cluster.elastic import PartitionedClient
from repro.core.session import RollbackError

KEYS = [f"k{i}" for i in range(16)]


def _rig(replication_factor, seed=2024):
    """A 2-worker functional cluster with a partitioned writer and a
    prefix reader; identical seeds make the r=0 / r=1 runs comparable."""
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, engine="faster", n_client_machines=0,
        checkpoint_interval=0.05, seed=seed,
        replication_factor=replication_factor))
    elastic = cluster.enable_elasticity(partition_count=8,
                                        lease_duration=0.5)
    client = PartitionedClient(cluster.env, cluster.net, "pclient-0",
                               cluster.metadata, elastic)
    reader = ReplicaReadClient(cluster.env, cluster.net, "rclient-0",
                               cluster.metadata,
                               [w.address for w in cluster.workers],
                               rng=23)
    if cluster.replication is not None:
        cluster.replication.register_client(client)
    return cluster, client, reader


def _drive(cluster, client, reader, crash_at=0.5, until=2.0):
    """Run a crash scenario; return the write/read audit trail.

    ``acked``: (seqno, key, value) per write the client saw succeed.
    ``lost``: (key, value) pairs a RollbackError reported erased.
    """
    env = cluster.env
    acked = []
    lost = []

    def writer():
        n = 0
        while True:
            key = KEYS[n % len(KEYS)]
            value = n
            try:
                yield from client.request(key, [("set", key, value)],
                                          write_count=1)
                acked.append((client.history[-1]["first_seqno"], key,
                              value))
            except RollbackError as error:
                for seqno, k, v in acked:
                    if seqno in error.lost:
                        lost.append((k, v))
                client.session.acknowledge_rollback()
            n += 1

    def reads():
        index = 0
        primaries = [w.address for w in cluster.workers]
        while True:
            yield from reader.read(primaries[index % len(primaries)], KEYS)
            index += 1

    env.process(writer(), name="writer")
    env.process(reads(), name="reads")
    cluster.schedule_crash(0, at_time=crash_at)
    cluster.run(until)
    return {"acked": acked, "lost": lost}


class TestPromotionInsteadOfRollback:
    def test_caught_up_replica_promotes_without_worldline_bump(self):
        cluster, client, reader = _rig(replication_factor=1)
        trail = _drive(cluster, client, reader)
        manager = cluster.manager
        # The crash was detected and handled by promotion, not §4.1.
        [promotion] = manager.promotions
        assert promotion["worker_id"] == "worker-0"
        assert promotion["promoted"] == "replica:worker-0:0"
        assert promotion["world_line"] == 0
        assert manager.controller.world_line == 0
        assert manager.promotion_fallbacks == 0
        assert manager.recoveries == []
        # No session ever observed a rollback.
        assert trail["lost"] == []
        assert client.rollbacks == []
        # The shard kept serving writes at the new address.
        post = [entry for entry in client.history
                if entry["object_id"] == "worker-0"
                and entry["batch_id"] > 0]
        assert post  # worker-0's object id survives the promotion
        assert len(trail["acked"]) > 100

    def test_same_seed_without_replication_takes_rollback(self):
        cluster, client, reader = _rig(replication_factor=0)
        _drive(cluster, client, reader)
        manager = cluster.manager
        assert manager.promotions == []
        assert manager.controller.world_line >= 1
        assert manager.recoveries
        assert manager.recoveries[0]["finished_at"] is not None

    def test_promoted_replica_keeps_serving_reads(self):
        cluster, client, reader = _rig(replication_factor=1)
        _drive(cluster, client, reader)
        assert reader.reads_failed == 0
        late = [h for h in reader.history
                if h["time"] > 1.0 and h["primary"] == "worker-0"]
        assert late
        assert {h["replica"] for h in late} == {"replica:worker-0:0"}
        # The promoted node's first-hand persists keep extending the
        # served prefix past the promotion point.
        assert max(h["durable_version"] for h in late) > \
            min(h["durable_version"] for h in reader.history)

    def test_reads_only_return_acked_never_lost_values(self):
        # Promotion run: nothing is ever lost, and every value a read
        # returned was a write the client saw succeed.
        cluster, client, reader = _rig(replication_factor=1)
        trail = _drive(cluster, client, reader)
        acked_values = {(k, v) for _s, k, v in trail["acked"]}
        returned = set()
        for h in reader.history:
            for key, value in zip(h["keys"], h["values"]):
                if value is not None:
                    returned.add((key, value))
        assert returned  # the reader saw real data
        assert returned <= acked_values
        assert trail["lost"] == []

    def test_second_crash_of_promoted_shard_falls_back_to_rollback(self):
        cluster, client, reader = _rig(replication_factor=1)
        _drive(cluster, client, reader, crash_at=0.5, until=1.5)
        [promotion] = cluster.manager.promotions
        promoted = promotion["promoted"]
        worker = cluster.manager.worker_registry[promoted]
        worker.crash()
        cluster.run(3.0)
        # The promoted node has no chain of its own: §4.1 this time.
        assert cluster.manager.promotion_fallbacks == 1
        assert cluster.manager.controller.world_line == 1
        assert cluster.manager.recoveries[-1]["finished_at"] is not None


class TestChainGating:
    def test_ok_replies_held_until_replica_acks(self):
        cluster, client, reader = _rig(replication_factor=1)
        env = cluster.env
        node = cluster.replication.chains["worker-1"][0]
        node.apply_paused = True
        done = []

        def one_write():
            reply = yield from client.request("key", [("set", "key", 1)],
                                             write_count=1)
            done.append(reply)

        env.process(one_write(), name="one-write")
        owner = None
        partition = cluster.elastic.partitioner.partition_of("key")
        env.run(until=0.4)
        owner = cluster.metadata.owner_of(partition)
        source = cluster.replication.sources[owner]
        if owner == "worker-1":
            # The batch executed, the reply memoized — but the paused
            # replica never acked, so the client never heard "ok" (the
            # resend-duplicate path must not leak it either).
            assert done == []
            assert source.replies_held >= 1
            assert source.replies_released == 0
            worker = cluster.manager.worker_registry[owner]
            assert worker.duplicate_batches > 0  # client did retry
            node.resume_apply()
            env.run(until=0.8)
            assert len(done) == 1
            assert source.replies_released >= 1
        else:
            # Routed to the unpaused chain: served normally.
            env.run(until=0.8)
            assert len(done) == 1

    def test_paused_replica_disqualified_from_reads(self):
        cluster, client, reader = _rig(replication_factor=1)
        env = cluster.env
        for chain in cluster.replication.chains.values():
            for node in chain:
                node.apply_paused = True
        result = []

        def one_read():
            # Let the cut advance past version 0 first — at cut 0 the
            # empty prefix is legitimately servable even by a paused
            # replica.
            yield 0.3
            reply = yield from reader.read("worker-0", ["key"])
            result.append(reply)

        env.process(one_read(), name="one-read")
        env.run(until=0.8)
        # Watermarks never move, the cut did: no replica qualifies.
        assert result in ([], [None])
        assert reader.reads_completed == 0


class CachedRoutingReader(ReplicaReadClient):
    """A prefix reader whose routing cache outlives a replica's pause
    (refreshed each second, not each 20 ms), keeping each "behind"
    bounce it folds in as ``(reply, cached durable, durable after)``."""

    REFRESH_INTERVAL = 1.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bounces = []

    def _note_behind(self, primary, reply):
        def cached():
            return {replica: durable
                    for replica, _applied, durable in self._records[primary]}
        before = cached()[reply.replica_id]
        super()._note_behind(primary, reply)
        self.bounces.append((reply, before, cached()[reply.replica_id]))


class SlowRefreshReader(ReplicaReadClient):
    """A prefix reader that re-reads routing only every ten seconds."""

    REFRESH_INTERVAL = 10.0


class TestRoutingRefresh:
    def test_first_read_refreshes_whatever_the_interval(self):
        """A reader that has never read routing (or just bounced) must
        refresh it before picking a replica, however long its refresh
        interval: a forced refresh is a flag, not a timestamp far enough
        in the past for the default interval only."""
        cluster, client, reader = _rig(replication_factor=1)
        env = cluster.env
        probe = SlowRefreshReader(env, cluster.net, "rclient-slow",
                                  cluster.metadata, ["worker-0"], rng=3)
        replies = []

        def probing():
            yield 0.3
            replies.append((yield from probe.read("worker-0", KEYS)))

        env.process(probing(), name="probing")
        _drive(cluster, client, reader, crash_at=0.6, until=0.8)
        assert replies and replies[0] is not None
        assert replies[0].status == "ok"
        assert probe.reads_completed == 1 and probe.reads_failed == 0


class TestStaleReplica:
    def test_replica_that_missed_entries_across_restart_goes_stale(self):
        cluster, client, reader = _rig(replication_factor=1)
        env = cluster.env
        node = cluster.replication.chains["worker-0"][0]

        def chaos():
            yield 0.45
            node.apply_paused = True

        env.process(chaos(), name="chaos")
        trail = _drive(cluster, client, reader, crash_at=0.5, until=1.2)
        # The lagging replica disqualified itself; §4.1 ran instead.
        assert cluster.manager.promotions == []
        assert cluster.manager.promotion_fallbacks == 1
        assert cluster.manager.controller.world_line == 1
        # Simulate the buffered tail being genuinely lost, then let the
        # new epoch's reset land: the replica's applied prefix now has
        # an unfillable hole, so it must mark itself stale.
        node._paused_backlog.clear()
        node.resume_apply()
        env.run(until=2.0)
        assert node.stale
        # Stale replicas are withdrawn from routing and refuse reads.
        assert cluster.metadata.replicas_of("worker-0") in (
            [], [("replica:worker-0:0", 0, 0)])
        refused = node._build_read_reply(
            type("R", (), {"read_id": 1, "keys": ("key",),
                           "min_version": 1})())
        assert refused.status == "behind"

    def test_reader_routes_around_a_replica_that_went_stale(self):
        # Both of worker-0's replicas pause and the crash falls back to
        # §4.1.  One then loses its buffered tail and goes stale; the
        # other resumes with its backlog.  A reader that last refreshed
        # its routing before the pause still holds both as qualified:
        # its first pick (seeded) is the stale one, which bounces the
        # read "behind", and the re-route serves it from the other.
        cluster, client, reader = _rig(replication_factor=2)
        env = cluster.env
        stale, healthy = cluster.replication.chains["worker-0"]
        probe = CachedRoutingReader(env, cluster.net, "rclient-probe",
                                    cluster.metadata, ["worker-0"], rng=3)
        replies = []

        def chaos():
            yield 0.45
            stale.apply_paused = healthy.apply_paused = True

        def probing():
            # The last routing refresh, then one read once it is stale.
            yield 0.44
            replies.append((yield from probe.read("worker-0", KEYS)))
            while not stale.stale:
                yield 1e-4
            replies.append((env.now, (yield from probe.read("worker-0",
                                                            KEYS))))

        env.process(chaos(), name="chaos")
        env.process(probing(), name="probing")
        _drive(cluster, client, reader, crash_at=0.5, until=1.2)
        assert cluster.manager.promotion_fallbacks == 1
        assert replies[0].status == "ok"
        stale._paused_backlog.clear()
        stale.resume_apply()
        healthy.resume_apply()
        # The run ends with the oracle (core/audit.py) passing.
        assert cluster.run(2.0) is cluster.stats
        assert stale.stale and not healthy.stale
        # The bounce happened, and folding it in dropped the stale
        # replica's cached durable version to the reply's (0: a stale
        # replica can serve no prefix).
        assert probe.behind_bounces >= 1
        [(reply, cached, folded)] = probe.bounces
        assert reply.replica_id == stale.address
        assert folded == reply.durable_version == 0 < cached
        # The re-routed read was served, and nothing was ever returned
        # by the stale replica once it had gone stale.
        stale_at, served = replies[1]
        assert served.status == "ok"
        assert served.replica_id == healthy.address
        assert not [entry for entry in probe.history
                    if entry["replica"] == stale.address
                    and entry["time"] >= stale_at]

    def test_reads_never_return_lost_values_through_fallback(self):
        cluster, client, reader = _rig(replication_factor=1)
        env = cluster.env
        node = cluster.replication.chains["worker-0"][0]
        # A second writer pinned to the surviving shard: its writes keep
        # landing right up to the crash, so some acked-but-above-cut
        # writes genuinely get erased by the §4.1 rollback.
        survivor_client = PartitionedClient(
            env, cluster.net, "pclient-1", cluster.metadata,
            cluster.elastic)
        cluster.replication.register_client(survivor_client)
        survivor_keys = [
            key for key in KEYS
            if cluster.metadata.owner_of(
                cluster.elastic.partitioner.partition_of(key))
            == "worker-1"]
        assert survivor_keys
        acked_b = []
        lost_b = []

        def survivor_writer():
            n = 0
            while True:
                key = survivor_keys[n % len(survivor_keys)]
                value = 1_000_000 + n
                try:
                    yield from survivor_client.request(
                        key, [("set", key, value)], write_count=1)
                    acked_b.append(
                        (survivor_client.history[-1]["first_seqno"],
                         key, value))
                except RollbackError as error:
                    for seqno, k, v in acked_b:
                        if seqno in error.lost:
                            lost_b.append((k, v))
                    survivor_client.session.acknowledge_rollback()
                n += 1

        def chaos():
            yield 0.45
            node.apply_paused = True
            yield 0.4
            node.resume_apply()

        env.process(chaos(), name="chaos")
        env.process(survivor_writer(), name="survivor-writer")
        trail = _drive(cluster, client, reader, crash_at=0.5, until=2.0)
        assert cluster.manager.controller.world_line == 1
        lost = set(trail["lost"]) | set(lost_b)
        assert lost  # the rollback really erased acked writes
        returned = set()
        for h in reader.history:
            for key, value in zip(h["keys"], h["values"]):
                if value is not None:
                    returned.add((key, value))
        # The recoverable-prefix guarantee: nothing a reader ever saw
        # was among the writes the rollback erased.
        assert returned
        assert returned.isdisjoint(lost)


class TestDRedisChains:
    def _cluster(self, **overrides):
        base = dict(n_shards=2, n_client_machines=1, client_threads=1,
                    checkpoint_interval=0.1, seed=11,
                    replication_factor=2)
        base.update(overrides)
        return DRedisCluster(DRedisConfig(**base))

    def test_proxy_chain_streams_and_gates_replies(self):
        cluster = self._cluster()
        reader = ReplicaReadClient(
            cluster.env, cluster.net, "rclient-0", cluster.metadata,
            [p.address for p in cluster.proxies], rng=5)
        cluster.env.process(reader.run_closed_loop(), name="rclient")
        cluster.run(1.0)
        for proxy in cluster.proxies:
            source = proxy.replication
            assert source.replies_held > 0
            assert source.replies_released == source.replies_held
        for chain in cluster.replication.chains.values():
            for node in chain:
                assert node.applied_version > 0
                assert node.durable_version > 0
                assert not node.stale
        assert reader.reads_completed > 0
        assert reader.reads_failed == 0

    def test_proxy_rollback_mirrored_to_replicas(self):
        cluster = self._cluster()
        cluster.schedule_failure(0.4)
        cluster.run(1.2)
        assert cluster.manager.controller.world_line == 1
        for chain in cluster.replication.chains.values():
            for node in chain:
                # Replicas followed the in-epoch rollback entry onto
                # the new world-line, to the primary's restored
                # version, without going stale.
                assert node.engine.world_line.current == 1
                assert not node.stale
                assert node.applied_version > 0

    def test_replication_requires_dpr_mode(self):
        from repro.cluster.dredis import RedisMode
        with pytest.raises(ValueError):
            self._cluster(mode=RedisMode.PROXY)


class TestElasticMembership:
    """A worker that joined mid-run is monitored and restarted like the
    original ones."""

    def test_scale_out_then_crash_new_worker_recovers(self):
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=1,
            checkpoint_interval=0.05))
        joined = []

        def grow_then_crash():
            yield 0.1
            worker = cluster.add_worker()
            joined.append(worker)
            yield 0.3
            worker.crash()

        cluster.env.process(grow_then_crash(), name="grow-crash")
        cluster.run(1.2)
        manager = cluster.manager
        [crash] = manager.detected_crashes
        assert crash["worker_id"] == "worker-2"
        assert crash["restarted_at"] is not None
        assert not joined[0].crashed
        assert manager.recoveries[-1]["finished_at"] is not None
