"""Unit tests for the D-FASTER worker's internal machinery."""

import random

import pytest

from repro.cluster.costmodel import CostModel
from repro.cluster.messages import (
    BatchReply,
    BatchRequest,
    CutBroadcast,
    RollbackCommand,
)
from repro.cluster.modeled import ModeledStore
from repro.cluster.stats import ClusterStats
from repro.cluster.worker import DFasterWorker
from repro.core.cuts import DprCut
from repro.core.versioning import Token
from repro.sim.storage import StorageDevice, StorageKind
from tests.test_sim_network import QuietNetwork


@pytest.fixture
def rig(env):
    net = QuietNetwork(env, rng=random.Random(0))
    client = net.register("client")
    worker = DFasterWorker(
        env, net, "w0",
        engine=ModeledStore("w0", effective_keys=1000),
        device=StorageDevice(env, StorageKind.LOCAL_SSD, rng=random.Random(1)),
        cost=CostModel(),
        stats=ClusterStats(),
        finder_address=None,
        manager_address=None,
        vcpus=2,
        checkpoint_interval=0.05,
    )
    # One long-lived receiver collecting every client-bound reply.
    client.replies = []

    def receiver():
        while True:
            message = yield client.inbox
            client.replies.append(message.payload)

    env.process(receiver())
    return net, client, worker


def request(batch_id=1, first_seqno=1, count=16, writes=8, world_line=0,
            min_version=0, deps=()):
    return BatchRequest(
        batch_id=batch_id, session_id="s", reply_to="client",
        world_line=world_line, min_version=min_version,
        first_seqno=first_seqno, op_count=count, write_count=writes,
        deps=deps,
    )


def send_and_collect(env, net, client, requests, until=0.2):
    """Send requests and return the replies that arrived since."""
    already = len(client.replies)
    for req in requests:
        net.send("client", "w0", req, size_ops=req.op_count)
    env.run(until=until)
    return client.replies[already:]


class TestServing:
    def test_batch_served_with_version(self, env, rig):
        net, client, worker = rig
        [reply] = send_and_collect(env, net, client, [request()])
        assert reply.status == "ok"
        assert reply.version >= 1
        assert worker.engine.total_ops == 16

    def test_service_takes_time(self, env, rig):
        net, client, worker = rig
        [reply] = send_and_collect(env, net, client, [request(count=1024,
                                                              writes=512)])
        # A 1024-op batch takes at least a millisecond of simulated time.
        assert reply.served_at > 1e-3

    def test_min_version_fast_forwards(self, env, rig):
        net, client, worker = rig
        send_and_collect(env, net, client,
                         [request(min_version=7)], until=0.04)
        assert worker.engine.version >= 7

    def test_threads_serve_concurrently(self, env, rig):
        net, client, worker = rig
        replies = send_and_collect(
            env, net, client,
            [request(batch_id=i, first_seqno=1 + 16 * i) for i in range(4)],
            until=0.05,
        )
        assert len(replies) == 4
        # With 2 vCPUs, batches 1&2 finish at ~the same time.
        times = sorted(r.served_at for r in replies)
        assert times[1] - times[0] < times[2] - times[0]


class TestCheckpointing:
    def test_periodic_checkpoints_persist(self, env, rig):
        net, client, worker = rig
        send_and_collect(env, net, client, [request()], until=0.3)
        assert worker.checkpoints_taken >= 4
        assert worker.engine.max_persisted_version >= 3

    def test_slow_window_during_checkpoint(self, env, rig):
        net, client, worker = rig
        seen = []

        def probe():
            while env.now < 0.2:
                seen.append((env.now, worker._slowdown()))
                yield 0.002

        env.process(probe())
        send_and_collect(env, net, client, [request()], until=0.2)
        assert any(factor > 1.0 for _t, factor in seen)
        assert any(factor == 1.0 for _t, factor in seen)

    def test_autoseal_flushed_fifo(self, env, rig):
        net, client, worker = rig
        # A huge Vs jump seals the dirty version; its flush must land
        # before later checkpoints'.
        send_and_collect(env, net, client,
                         [request(), request(batch_id=2, first_seqno=17,
                                             min_version=50)],
                         until=0.3)
        persisted = worker.engine.persisted_versions()
        assert persisted == sorted(persisted)
        assert worker.engine.version >= 50


class TestControlMessages:
    def test_cut_broadcast_cached_and_piggybacked(self, env, rig):
        net, client, worker = rig
        cut = DprCut.of(Token("w0", 3))

        def broadcast():
            yield 0.001
            net.send("client", "w0", CutBroadcast(cut=cut, world_line=0,
                                                  max_version=3))
            yield 0.01
            net.send("client", "w0", request())

        env.process(broadcast())
        env.run(until=0.1)
        assert client.replies[0].cut is cut

    def test_rollback_command_restores_and_acks(self, env, rig):
        net, client, worker = rig
        manager = net.register("manager")
        worker.manager_address = "manager"
        acks = []

        def receiver():
            message = yield manager.inbox
            acks.append(message.payload)

        env.process(receiver())
        send_and_collect(env, net, client, [request()], until=0.12)
        persisted = worker.engine.max_persisted_version
        command = RollbackCommand(world_line=1,
                                  cut=DprCut.of(Token("w0", persisted)))
        net.send("client", "w0", command)
        env.run(until=0.4)
        assert worker.engine.world_line.current == 1
        assert len(acks) == 1
        assert acks[0].world_line == 1

    def test_stale_request_after_rollback_rejected(self, env, rig):
        net, client, worker = rig
        send_and_collect(env, net, client, [request()], until=0.12)
        worker.engine.restore(worker.engine.max_persisted_version,
                              world_line=1)
        replies = send_and_collect(env, net, client,
                                   [request(batch_id=9, world_line=0)],
                                   until=0.2)
        stale = [r for r in replies if r.batch_id == 9]
        assert stale and stale[0].status == "rolled_back"
        assert stale[0].world_line == 1

    def test_future_request_retried(self, env, rig):
        net, client, worker = rig
        replies = send_and_collect(env, net, client,
                                   [request(world_line=5)], until=0.05)
        assert replies[0].status == "retry"


class TestStopMidIntervalRaces:
    """Regressions for post-stop work flagged by dprlint DPR-A01: the
    loop timers were already armed when stop() landed, and the old code
    ran one more body before noticing."""

    def test_no_checkpoint_after_stop_mid_interval(self, rig):
        net, client, worker = rig
        loop = worker._checkpoint_loop()
        next(loop)     # checkpoint interval in flight
        worker.stop()  # stop() lands before the timer fires
        with pytest.raises(StopIteration):
            loop.send(None)

    def test_no_heartbeat_after_stop_mid_interval(self, rig):
        net, client, worker = rig
        sent = []

        class _NetStub:
            def send(self, *args, **kwargs):
                sent.append(args)

        loop = worker._heartbeat_loop()
        next(loop)     # heartbeat interval in flight
        worker.stop()
        worker.net = _NetStub()
        try:
            with pytest.raises(StopIteration):
                loop.send(None)
        finally:
            worker.net = net
        assert sent == []
