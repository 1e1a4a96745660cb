"""Tests for the network model."""

import random

import pytest

from repro.sim.network import Network


class QuietNetwork(Network):
    """The network without jitter: deterministic latency for exact
    assertions."""

    JITTER_STDDEV = 0.0


@pytest.fixture
def net(env):
    return QuietNetwork(env, rng=random.Random(1))


class TestDelivery:
    def test_basic_send(self, env, net):
        net.register("a")
        b = net.register("b")
        got = []

        def receiver():
            message = yield b.inbox
            got.append((message.payload, env.now))

        env.process(receiver())
        net.send("a", "b", "hello")
        env.run()
        assert got[0][0] == "hello"
        assert got[0][1] == pytest.approx(50e-6 + 25e-9)

    def test_batch_size_adds_latency(self, env, net):
        net.register("a")
        b = net.register("b")
        times = []

        def receiver():
            for _ in range(2):
                message = yield b.inbox
                times.append(message.deliver_time)

        env.process(receiver())
        net.send("a", "b", "small", size_ops=1)
        net.send("a", "b", "big", size_ops=100000)
        env.run()
        assert times[1] - times[0] > 1e-3  # per-op cost visible

    def test_loopback_is_free(self, env, net):
        a = net.register("a")
        got = []

        def receiver():
            message = yield a.inbox
            got.append(env.now)

        env.process(receiver())
        net.send("a", "a", "self")
        env.run()
        assert got == [0.0]

    def test_in_order_delivery_same_pair(self, env, net):
        net.register("a")
        b = net.register("b")
        got = []

        def receiver():
            for _ in range(3):
                message = yield b.inbox
                got.append(message.payload)

        env.process(receiver())
        for i in range(3):
            net.send("a", "b", i, size_ops=1)
        env.run()
        assert got == [0, 1, 2]

    def test_register_idempotent(self, env, net):
        first = net.register("a")
        second = net.register("a")
        assert first is second


class TestFailures:
    def test_down_destination_drops(self, env, net):
        net.register("a")
        b = net.register("b")
        net.set_up("b", False)
        net.send("a", "b", "lost")
        env.run()
        assert len(b.inbox) == 0
        assert b.dropped == 1

    def test_down_source_drops(self, env, net):
        net.register("a")
        b = net.register("b")
        net.set_up("a", False)
        net.send("a", "b", "lost")
        env.run()
        assert len(b.inbox) == 0

    def test_crash_during_flight_drops(self, env, net):
        net.register("a")
        b = net.register("b")

        def crash():
            yield 10e-6  # before one-way latency elapses
            net.set_up("b", False)

        env.process(crash())
        net.send("a", "b", "in flight")
        env.run()
        assert len(b.inbox) == 0
        assert b.dropped == 1

    def test_recovery_allows_delivery(self, env, net):
        net.register("a")
        b = net.register("b")
        net.set_up("b", False)
        net.send("a", "b", "lost")

        def later():
            yield 1
            net.set_up("b", True)
            net.send("a", "b", "delivered")

        env.process(later())
        env.run()
        assert len(b.inbox) == 1

    def test_counters(self, env, net):
        a = net.register("a")
        b = net.register("b")
        net.send("a", "b", 1)
        net.send("a", "b", 2)
        env.run()
        assert a.sent == 2
        assert b.received == 2
