"""Unit tests for the D-Redis proxy and Redis-instance actors."""

import pytest

from repro.cluster.dredis import DRedisCluster, DRedisConfig, RedisMode
from repro.cluster.messages import BatchRequest


def make_cluster(**overrides):
    defaults = dict(n_shards=1, mode=RedisMode.DPR, batch_size=16,
                    n_client_machines=0, checkpoint_interval=0.05)
    defaults.update(overrides)
    return DRedisCluster(DRedisConfig(**defaults))


def drive(cluster, requests, until=0.3, target="proxy-0"):
    client = cluster.net.register("tester")
    replies = []

    def receiver():
        while True:
            message = yield client.inbox
            replies.append(message.payload)

    cluster.env.process(receiver())
    for req in requests:
        cluster.net.send("tester", target, req, size_ops=req.op_count)
    cluster.env.run(until=until)
    return replies


def request(batch_id=1, first_seqno=1, count=16, world_line=0,
            min_version=0):
    return BatchRequest(
        batch_id=batch_id, session_id="t", reply_to="tester",
        world_line=world_line, min_version=min_version,
        first_seqno=first_seqno, op_count=count, write_count=count // 2,
    )


class TestProxyPath:
    def test_batch_round_trip_stamps_version(self):
        cluster = make_cluster()
        [reply] = drive(cluster, [request()], until=0.02)
        assert reply.status == "ok"
        assert reply.version >= 1
        assert cluster.redis_instances[0].commands == 16

    def test_proxy_adds_latency_over_plain(self):
        plain = make_cluster(mode=RedisMode.PLAIN)
        [fast] = drive(plain, [request()], until=0.02, target="redis-0")
        proxied = make_cluster(mode=RedisMode.PROXY)
        [slow] = drive(proxied, [request()], until=0.02)
        assert slow.served_at > fast.served_at

    def test_commit_loop_persists_versions(self):
        cluster = make_cluster()
        drive(cluster, [request()], until=0.4)
        proxy = cluster.proxies[0]
        assert proxy.engine.max_persisted_version >= 2

    def test_bgsave_latch_pauses_redis(self):
        # A batch that arrives while BGSAVE holds the exclusive latch
        # waits out the pause; its round trip spikes accordingly.
        cluster = make_cluster(checkpoint_interval=0.02)
        client = cluster.net.register("tester")
        round_trips = []

        def driver():
            for index in range(60):
                sent = cluster.env.now
                cluster.net.send(
                    "tester", "proxy-0",
                    request(batch_id=index, first_seqno=1 + 16 * index),
                    size_ops=16,
                )
                yield client.inbox
                round_trips.append(cluster.env.now - sent)
                yield 3e-3

        cluster.env.process(driver())
        cluster.env.run(until=0.5)
        assert len(round_trips) == 60
        # Typical round trips are a few hundred microseconds; requests
        # that land during a BGSAVE stall behind the exclusive latch
        # (the deterministic client phase-locks with the checkpoint
        # cycle, so the stall is a constant fraction of the pause).
        assert min(round_trips) < 0.5e-3
        assert max(round_trips) > 3 * min(round_trips)
        assert max(round_trips) > 1e-3

    def test_min_version_fast_forwards_engine(self):
        cluster = make_cluster()
        drive(cluster, [request(min_version=9)], until=0.02)
        assert cluster.proxies[0].engine.version >= 9

    def test_stale_worldline_rejected_without_touching_redis(self):
        cluster = make_cluster()
        proxy = cluster.proxies[0]
        proxy.engine.execute(("batch", 1, 1))
        proxy.engine.commit()
        proxy.engine.restore(1, world_line=2)
        before = cluster.redis_instances[0].commands
        [reply] = drive(cluster, [request(world_line=0)], until=0.02)
        assert reply.status == "rolled_back"
        assert cluster.redis_instances[0].commands == before

    def test_future_worldline_retried(self):
        cluster = make_cluster()
        [reply] = drive(cluster, [request(world_line=7)], until=0.02)
        assert reply.status == "retry"


class TestAofModes:
    @pytest.mark.parametrize("aof,slower", [("always", True),
                                            ("everysec", False)])
    def test_aof_cost_ordering(self, aof, slower):
        plain = make_cluster(mode=RedisMode.PLAIN)
        [base] = drive(plain, [request()], until=0.05, target="redis-0")
        tuned = make_cluster(mode=RedisMode.PLAIN, aof=aof)
        [reply] = drive(tuned, [request()], until=0.05, target="redis-0")
        if slower:
            assert reply.served_at > 1.2 * base.served_at
        else:
            assert reply.served_at < 1.2 * base.served_at


class TestCommitRollbackRace:
    def test_rollback_during_bgsave_drops_checkpoint(self):
        """A rollback landing while the BGSAVE latch is queued must not
        persist (or report) the rolled-back version."""
        cluster = make_cluster(checkpoint_interval=10.0)
        [reply] = drive(cluster, [request()], until=0.02)
        assert reply.status == "ok"
        proxy = cluster.proxies[0]
        commit = proxy._run_checkpoint()
        next(commit)  # sealed; BGSAVE latch queued
        sealed_version = proxy.engine.version - 1
        assert proxy.engine.is_sealed(sealed_version)
        # The rollback drops every unpersisted sealed version.
        proxy.engine.restore(
            0, world_line=proxy.engine.world_line.current + 1)
        assert not proxy.engine.is_sealed(sealed_version)
        # The BGSAVE completes: the commit must abort, not write and
        # report a checkpoint of a version that no longer exists.
        with pytest.raises(StopIteration):
            commit.send(None)
        assert sealed_version not in proxy.engine.persisted_versions()
        assert not proxy._machine_busy
