"""Tests for elastic ownership migration on the running cluster (§5.3)."""

import zlib

import pytest

from repro.cluster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig
from repro.cluster.elastic import ElasticCoordinator, PartitionedClient
from repro.cluster.messages import BatchReply
from repro.cluster.ownership import HashPartitioner
from repro.core.session import RollbackError


@pytest.fixture
def rig():
    cluster = DFasterCluster(DFasterConfig(
        n_workers=2, vcpus=2, n_client_machines=0,
        engine="faster", checkpoint_interval=0.05,
    ))
    coordinator = ElasticCoordinator(
        cluster.env, cluster.metadata, cluster.workers, partition_count=8)
    client = PartitionedClient(cluster.env, cluster.net, "pclient",
                               cluster.metadata, coordinator)
    return cluster, coordinator, client


def run_request(cluster, client, key, ops, writes=0, until=None):
    box = {}

    def driver():
        box["reply"] = yield from client.request(key, ops, writes)

    cluster.env.process(driver())
    cluster.run(until if until is not None else cluster.env.now + 0.5)
    return box.get("reply")


class TestInitialPlacement:
    def test_every_partition_owned(self, rig):
        cluster, coordinator, _ = rig
        for partition in range(8):
            owner = coordinator.owner_of(partition)
            assert owner in ("worker-0", "worker-1")

    def test_workers_hold_leases(self, rig):
        cluster, coordinator, _ = rig
        owned = sum(len(view.owned_partitions())
                    for view in coordinator.views.values())
        assert owned == 8

    def test_request_routed_to_owner(self, rig):
        cluster, coordinator, client = rig
        reply = run_request(cluster, client, "somekey",
                            [("set", "somekey", 1)], writes=1)
        partition = coordinator.partitioner.partition_of("somekey")
        assert reply.status == "ok"
        assert reply.object_id == coordinator.owner_of(partition)


class TestValidation:
    def test_misrouted_batch_bounced(self, rig):
        cluster, coordinator, client = rig
        partition = coordinator.partitioner.partition_of("k")
        owner = coordinator.owner_of(partition)
        wrong = "worker-1" if owner == "worker-0" else "worker-0"
        # Poison the client cache so it routes to the wrong worker.
        client._owner_cache[partition] = wrong
        reply = run_request(cluster, client, "k", [("set", "k", 1)],
                            writes=1)
        # The client recovered via a metadata refresh and a retry.
        assert reply.status == "ok"
        assert reply.object_id == owner
        assert client.retries >= 1
        wrong_worker = [w for w in cluster.workers
                        if w.address == wrong][0]
        assert wrong_worker.not_owner_rejections >= 1


class TestMigration:
    def test_transfer_moves_serving(self, rig):
        cluster, coordinator, client = rig
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        run_request(cluster, client, "k", [("set", "k", "v1")], writes=1)

        cluster.env.process(coordinator.migrate(partition, new))
        cluster.run(cluster.env.now + 0.3)
        assert coordinator.owner_of(partition) == new
        assert coordinator.migrations_completed == 1

        reply = run_request(cluster, client, "k", [("get", "k")])
        assert reply.status == "ok"
        assert reply.object_id == new

    def test_transfer_waits_for_checkpoint_boundary(self, rig):
        cluster, coordinator, client = rig
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        old_worker = [w for w in cluster.workers if w.address == old][0]
        version_at_start = old_worker.engine.version

        done = {}

        def migrate_and_mark():
            yield from coordinator.migrate(partition, new)
            done["version"] = old_worker.engine.version

        cluster.env.process(migrate_and_mark())
        cluster.run(cluster.env.now + 0.3)
        # Ownership flipped only after the old owner sealed a version.
        assert done["version"] > version_at_start

    def test_requests_during_transfer_retry_until_served(self, rig):
        cluster, coordinator, client = rig
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"

        replies = []

        def busy_client():
            for index in range(6):
                reply = yield from client.request(
                    "k", [("set", "k", index)], 1)
                replies.append(reply)
                yield 0.02

        def delayed_migration():
            yield 0.06  # let a few requests land
            yield from coordinator.migrate(partition, new)

        cluster.env.process(busy_client())
        cluster.env.process(delayed_migration())
        cluster.run(cluster.env.now + 1.0)
        assert len(replies) == 6
        assert all(r.status == "ok" for r in replies)
        # Some requests landed before, some after the transfer.
        servers = {r.object_id for r in replies}
        assert servers == {old, new}

    def test_migrate_to_self_is_noop(self, rig):
        cluster, coordinator, _ = rig
        partition = 0
        owner = coordinator.owner_of(partition)
        cluster.env.process(coordinator.migrate(partition, owner))
        cluster.run(cluster.env.now + 0.2)
        assert coordinator.owner_of(partition) == owner
        assert coordinator.migrations_completed == 0


class TestStableHash:
    """Regression: HashPartitioner must not use builtin hash()."""

    def test_partitions_are_crc32_of_canonical_bytes(self):
        partitioner = HashPartitioner(16)
        assert (partitioner.partition_of("user:123")
                == zlib.crc32(b"s:user:123") % 16)
        assert partitioner.partition_of(b"raw") == zlib.crc32(b"b:raw") % 16
        assert partitioner.partition_of(7) == zlib.crc32(b"i:7") % 16

    def test_type_prefixes_keep_key_types_distinct(self):
        partitioner = HashPartitioner(1 << 20)
        distinct = {partitioner.partition_of(1),
                    partitioner.partition_of("1"),
                    partitioner.partition_of(b"1")}
        assert len(distinct) == 3


class TestLeaseRenewal:
    """Regression: leases were granted once and never renewed, so a
    partitioned workload past the lease horizon bounced forever."""

    def test_requests_keep_landing_past_lease_horizon(self):
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05,
        ))
        coordinator = ElasticCoordinator(
            cluster.env, cluster.metadata, cluster.workers,
            partition_count=8, lease_duration=0.1,
        )
        client = PartitionedClient(cluster.env, cluster.net, "pclient",
                                   cluster.metadata, coordinator)
        replies = []

        def driver():
            # 0.6s of traffic: six lease horizons deep.
            for index in range(30):
                reply = yield from client.request(
                    "k", [("set", "k", index)], 1)
                replies.append(reply)
                yield 0.02

        cluster.env.process(driver())
        cluster.run(1.2)
        assert len(replies) == 30
        assert all(reply.status == "ok" for reply in replies)

    def test_idle_partitions_stay_leased_via_metadata_renewal(self):
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05,
        ))
        coordinator = ElasticCoordinator(
            cluster.env, cluster.metadata, cluster.workers,
            partition_count=8, lease_duration=0.1,
        )
        cluster.run(0.55)
        # No traffic at all, yet every lease is still valid: the
        # metadata-validated renewal loop re-granted them.
        owned = sum(len(view.owned_partitions())
                    for view in coordinator.views.values())
        assert owned == 8


class TestReplyMatching:
    """Regression: the client took whatever arrived on its inbox as the
    reply, misattributing stale duplicates under reorder/duplication."""

    def test_forged_stale_reply_is_dropped(self, rig):
        cluster, coordinator, client = rig
        partition = coordinator.partitioner.partition_of("k")
        owner = coordinator.owner_of(partition)

        def forger():
            # A stale reply (wrong batch id, wrong version) lands while
            # the real request is in flight.
            yield 1e-4
            forged = BatchReply(999999, "pclient", owner, "ok",
                                0, 4242, 1, None, cluster.env.now, ("x",))
            cluster.net.send(owner, "pclient", forged, size_ops=1)

        cluster.env.process(forger())
        reply = run_request(cluster, client, "k", [("set", "k", 1)],
                            writes=1)
        assert reply.status == "ok"
        assert reply.version != 4242
        assert client.mismatched_replies >= 1
        # The session recorded the real version, not the forged one.
        record = client.history[-1]
        assert record["version"] == reply.version


class TestMigrationLiveness:
    """Regression: migrate() looped forever on an idle old owner and
    raised KeyError on a departed one."""

    def test_migrate_from_departed_owner_takes_approximate_path(self, rig):
        cluster, coordinator, _ = rig
        partition = 3
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        # The old owner has left the cluster entirely: the coordinator
        # no longer tracks it (pre-fix: KeyError on self.workers[old]).
        coordinator.workers.pop(old)
        cluster.env.process(coordinator.migrate(partition, new))
        cluster.run(cluster.env.now + 0.5)
        assert coordinator.owner_of(partition) == new
        assert coordinator.migrations_completed == 1
        assert coordinator.approximate_transfers == 1

    def test_migrate_from_idle_owner_forces_checkpoint(self):
        # Checkpoints disabled: the old owner's version would never
        # advance on its own (pre-fix: migrate() spun forever).
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05,
            checkpoints_enabled=False,
        ))
        coordinator = ElasticCoordinator(
            cluster.env, cluster.metadata, cluster.workers,
            partition_count=8)
        partition = 3
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        cluster.env.process(coordinator.migrate(partition, new))
        cluster.run(cluster.env.now + 1.0)
        assert coordinator.owner_of(partition) == new
        assert coordinator.migrations_completed == 1
        assert coordinator.forced_checkpoints == 1

    def test_migrate_from_crashed_owner_completes(self, rig):
        cluster, coordinator, _ = rig
        partition = 3
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        old_worker = [w for w in cluster.workers if w.address == old][0]
        old_worker.crash()
        cluster.env.process(coordinator.migrate(partition, new))
        cluster.run(cluster.env.now + 0.5)
        assert coordinator.owner_of(partition) == new
        assert coordinator.approximate_transfers == 1


def _drive_until_rollback(cluster, client, key, outcome, gap=0.01,
                          attempts=60):
    """Issue sequential sets on ``key`` until a rollback error fires."""

    def driver():
        try:
            for index in range(attempts):
                reply = yield from client.request(
                    key, [("set", key, index)], 1)
                outcome.setdefault("replies", []).append(reply)
                yield gap
        except RollbackError as error:
            outcome["error"] = error

    cluster.env.process(driver())


class TestPrefixRecoverabilityThroughMigration:
    """The paper's headline guarantee, exercised *through* a live
    migration: a session whose partition moves mid-run still gets the
    exact surviving prefix on rollback (``PartitionedClient`` audits
    every rollback it raises against the ops it saw execute)."""

    def _assert_dpr_guarantee(self, client, outcome, old, new):
        error = outcome["error"]
        session = client.session
        # The migration actually happened mid-session: both owners
        # served committed traffic.
        served = {entry["object_id"] for entry in client.history}
        assert served == {old, new}
        # The session resumes on the new world-line after acknowledging.
        session.acknowledge_rollback()
        header = session.issue(new, now=0.0)
        assert header.world_line == error.new_world_line

    def test_dfaster_session_rolls_back_to_published_cut(self):
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05,
        ))
        coordinator = ElasticCoordinator(
            cluster.env, cluster.metadata, cluster.workers,
            partition_count=8)
        client = PartitionedClient(cluster.env, cluster.net, "pclient",
                                   cluster.metadata, coordinator)
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        outcome = {}
        _drive_until_rollback(cluster, client, "k", outcome)

        def migration():
            yield 0.1
            yield from coordinator.migrate(partition, new)

        cluster.env.process(migration())
        cluster.schedule_failure(0.3)
        cluster.run(1.0)
        assert coordinator.migrations_completed == 1
        assert "error" in outcome
        self._assert_dpr_guarantee(client, outcome, old, new)

    def test_dredis_session_rolls_back_to_published_cut(self):
        cluster = DRedisCluster(DRedisConfig(
            n_shards=2, n_client_machines=0, checkpoint_interval=0.05,
        ))
        elastic = cluster.enable_elasticity(partition_count=8,
                                            lease_duration=0.5)
        client = PartitionedClient(cluster.env, cluster.net, "pclient",
                                   cluster.metadata, elastic)
        partition = elastic.partitioner.partition_of("k")
        old = elastic.owner_of(partition)
        new = "proxy-1" if old == "proxy-0" else "proxy-0"
        outcome = {}
        _drive_until_rollback(cluster, client, "k", outcome)

        def migration():
            yield 0.1
            yield from elastic.migrate(partition, new)

        cluster.env.process(migration())
        cluster.schedule_failure(0.3)
        cluster.run(1.0)
        assert elastic.migrations_completed == 1
        assert "error" in outcome
        self._assert_dpr_guarantee(client, outcome, old, new)

    def test_vs_fast_forwards_across_owner_change(self):
        """Versions observed by the session never regress, even though
        the second owner is a different engine (§3.2 Vs carry)."""
        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=0,
            engine="faster", checkpoint_interval=0.05,
        ))
        coordinator = ElasticCoordinator(
            cluster.env, cluster.metadata, cluster.workers,
            partition_count=8)
        client = PartitionedClient(cluster.env, cluster.net, "pclient",
                                   cluster.metadata, coordinator)
        partition = coordinator.partitioner.partition_of("k")
        old = coordinator.owner_of(partition)
        new = "worker-1" if old == "worker-0" else "worker-0"
        outcome = {}
        _drive_until_rollback(cluster, client, "k", outcome, attempts=30)

        def migration():
            yield 0.1
            yield from coordinator.migrate(partition, new)

        cluster.env.process(migration())
        cluster.run(0.6)
        replies = outcome["replies"]
        assert len(replies) == 30
        served = {entry["object_id"] for entry in client.history}
        assert served == {old, new}
        versions = [entry["version"] for entry in client.history]
        assert versions == sorted(versions)
        # The new owner fast-forwarded past every version the session
        # had seen, so Vs kept the order (§3.2).
        assert client.session.version_vector == versions[-1]


class TestScaling:
    def _owner_counts(self, coordinator):
        counts = {}
        for partition in range(coordinator.partition_count):
            owner = coordinator.owner_of(partition)
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    def test_scale_out_hands_fair_share_to_newcomer(self, rig):
        cluster, coordinator, _ = rig
        worker = cluster.add_worker()
        cluster.env.process(coordinator.scale_out(worker))
        cluster.run(cluster.env.now + 1.0)
        counts = self._owner_counts(coordinator)
        # 8 partitions over 3 workers: the newcomer got floor(8/3) = 2.
        assert counts[worker.address] == 2
        assert sorted(counts.values()) == [2, 3, 3]
        assert coordinator.views[worker.address].owns(
            sorted(p for p in range(8)
                   if coordinator.owner_of(p) == worker.address)[0])

    def test_scale_in_drains_and_detaches(self, rig):
        cluster, coordinator, _ = rig
        departing = "worker-1"
        cluster.env.process(coordinator.scale_in(departing))
        cluster.run(cluster.env.now + 1.0)
        counts = self._owner_counts(coordinator)
        assert counts == {"worker-0": 8}
        assert departing not in coordinator.views
        assert departing not in coordinator.workers

    def test_scale_in_last_worker_refuses(self, rig):
        cluster, coordinator, _ = rig

        def drain_all():
            yield from coordinator.scale_in("worker-1")
            with pytest.raises(RuntimeError):
                yield from coordinator.scale_in("worker-0")

        cluster.env.process(drain_all())
        cluster.run(cluster.env.now + 2.0)
        assert coordinator.owner_of(0) == "worker-0"


class TestYieldPointRaces:
    """Regressions for the check-then-act races across yield points
    that dprlint DPR-A01 flagged (see docs/ANALYSIS.md).  Each test
    drives the generator by hand so the racing interleaving is exact:
    the mutation lands while the process is parked on a yield."""

    def test_migrate_abandons_when_concurrently_rehomed(self, rig):
        cluster, coordinator, _ = rig
        partition = 0
        old_owner = coordinator.owner_of(partition)
        target = "worker-1" if old_owner == "worker-0" else "worker-0"
        transfer = coordinator.migrate(partition, target)
        next(transfer)  # step 1 done; metadata access in flight
        # A concurrent recovery re-homes the partition mid-access.
        coordinator.metadata.set_owner(partition, target)
        coordinator.views[target].grant(partition)
        # The transfer must abandon instead of nulling out the row the
        # concurrent re-home just installed (and double-granting).
        with pytest.raises(StopIteration):
            transfer.send(None)
        assert coordinator.owner_of(partition) == target
        assert coordinator.migrations_completed == 0

    def test_migrate_survives_target_detaching(self, rig):
        cluster, coordinator, _ = rig
        partition = 0
        old_owner = coordinator.owner_of(partition)
        # Orphan the partition so the transfer starts at step 3.
        coordinator.views[old_owner].renounce(partition)
        coordinator.metadata.set_owner(partition, None)
        target = "worker-1" if old_owner == "worker-0" else "worker-0"
        transfer = coordinator.migrate(partition, target)
        next(transfer)  # step 3 metadata access in flight
        coordinator.detach_worker(target)  # scale-in mid-transfer
        # Must return cleanly (partition left unowned), not KeyError.
        with pytest.raises(StopIteration):
            transfer.send(None)
        assert coordinator.owner_of(partition) is None
        assert coordinator.migrations_completed == 0

    def test_lease_renewal_skipped_when_crash_lands_mid_access(self, rig):
        cluster, coordinator, _ = rig
        worker = cluster.workers[0]
        view = worker.ownership
        renewals = []
        view.refresh_against = lambda owner_of: renewals.append(owner_of)
        loop = worker._lease_renewal_loop(view)
        next(loop)       # renewal period elapses
        loop.send(None)  # pre-checks passed; metadata access in flight
        worker.crashed = True  # the crash lands during the access
        loop.send(None)  # access completes
        # A crashed worker must not refresh leases it no longer holds.
        assert renewals == []


class TestClientShutdownRace:
    def test_no_batch_issued_after_stop_mid_metadata_read(self):
        import random as _random

        cluster = DFasterCluster(DFasterConfig(
            n_workers=2, vcpus=2, n_client_machines=1, client_threads=1,
            engine="faster", checkpoint_interval=0.05,
        ))
        machine = cluster.clients[0]

        class _Router:
            partition_count = 8

            def __init__(self, metadata):
                self.metadata = metadata

        machine.router = _Router(cluster.metadata)
        session = next(iter(machine.sessions.values()))
        loop = machine._issue_loop(session, _random.Random(0))
        next(loop)       # cache miss: metadata read in flight
        machine.stop()   # stop() lands during the read
        # The loop must exit without issuing one more batch.
        with pytest.raises(StopIteration):
            loop.send(None)
