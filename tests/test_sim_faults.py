"""Tests for the fault-injection subsystem (repro.sim.faults)."""

import random

import pytest

from repro.sim.faults import (
    FaultPlan,
    LinkFault,
    MetadataOutage,
    MetadataSpike,
    Partition,
)
from tests.test_sim_network import QuietNetwork


def faulty_net(env, plan):
    return QuietNetwork(env, rng=random.Random(1), faults=plan)


class TestLinkFault:
    def test_glob_matching(self):
        rule = LinkFault(src="worker-*", dst="client-*", drop=1.0)
        assert rule.matches("worker-0", "client-3")
        assert not rule.matches("client-3", "worker-0")
        assert not rule.matches("worker-0", "dpr-finder")

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(7, links=[
            LinkFault(src="worker-0", dst="*", drop=1.0),
            LinkFault(src="worker-*", dst="*", drop=0.0),
        ])
        # Twice: the second round is answered from the per-link memo.
        for _ in range(2):
            assert plan.deliveries("worker-0", "client-0", 0.0) == []
            assert plan.deliveries("worker-1", "client-0", 0.0) == [0.0]
            assert plan.deliveries("client-0", "worker-0", 0.0) == [0.0]

    def test_unmatched_link_is_untouched(self):
        plan = FaultPlan(7, links=[LinkFault(src="a", dst="b", drop=1.0)])
        assert plan.deliveries("x", "y", 0.0) == [0.0]


class TestFaultPlan:
    def test_drop_probability_one_always_drops(self):
        plan = FaultPlan(3, links=[LinkFault(drop=1.0)])
        for _ in range(20):
            assert plan.deliveries("a", "b", 0.0) == []
        assert plan.injected["dropped"] == 20

    def test_duplicate_yields_two_copies(self):
        plan = FaultPlan(3, links=[LinkFault(duplicate=1.0)])
        copies = plan.deliveries("a", "b", 0.0)
        assert len(copies) == 2
        assert copies[0] == 0.0
        assert copies[1] > 0.0
        assert plan.injected["duplicated"] == 1

    def test_reorder_delay_is_bounded(self):
        plan = FaultPlan(3, links=[LinkFault(reorder=1.0,
                                             reorder_delay=5e-3)])
        for _ in range(50):
            [extra] = plan.deliveries("a", "b", 0.0)
            assert 0.0 <= extra <= 5e-3
        assert plan.injected["reordered"] == 50

    def test_partition_severs_both_directions_in_window(self):
        plan = FaultPlan(3, partitions=[
            Partition(group_a=("worker-0",), group_b=("worker-1", "client-*"),
                      start=1.0, end=2.0),
        ])
        assert plan.deliveries("worker-0", "worker-1", 1.5) == []
        assert plan.deliveries("client-7", "worker-0", 1.5) == []
        # Outside the window and within one group: unaffected.
        assert plan.deliveries("worker-0", "worker-1", 0.5) == [0.0]
        assert plan.deliveries("worker-0", "worker-1", 2.0) == [0.0]
        assert plan.deliveries("worker-1", "client-7", 1.5) == [0.0]
        assert plan.injected["partitioned"] == 2

    def test_metadata_outage_stalls_until_end(self):
        plan = FaultPlan(3, metadata_outages=[MetadataOutage(1.0, 1.5)])
        assert plan.metadata_delay(1.2) == pytest.approx(0.3)
        assert plan.metadata_delay(0.9) == 0.0
        assert plan.metadata_delay(1.5) == 0.0
        assert plan.injected["metadata_outages"] == 1

    def test_metadata_spike_adds_extra(self):
        plan = FaultPlan(3, metadata_spikes=[MetadataSpike(0.0, 1.0, 7e-3)])
        assert plan.metadata_delay(0.5) == pytest.approx(7e-3)
        assert plan.metadata_delay(1.5) == 0.0

    def test_same_seed_same_schedule(self):
        def draws(plan):
            return [tuple(plan.deliveries("a", "b", 0.0))
                    for _ in range(200)]
        spec = dict(links=[LinkFault(drop=0.3, duplicate=0.2, reorder=0.2)])
        assert draws(FaultPlan(11, **spec)) == draws(FaultPlan(11, **spec))

    def test_replay_rewinds_the_rng(self):
        plan = FaultPlan(11, links=[LinkFault(drop=0.5)])
        first = [tuple(plan.deliveries("a", "b", 0.0)) for _ in range(50)]
        again = plan.replay()
        second = [tuple(again.deliveries("a", "b", 0.0)) for _ in range(50)]
        assert first == second
        assert again.injected["dropped"] == plan.injected["dropped"]

    def test_replay_requires_int_seed(self):
        plan = FaultPlan(random.Random(5))
        with pytest.raises(ValueError):
            plan.replay()


class TestNetworkIntegration:
    def test_dropping_plan_loses_message(self, env):
        net = faulty_net(env, FaultPlan(3, links=[LinkFault(drop=1.0)]))
        net.register("a")
        b = net.register("b")
        net.send("a", "b", "lost")
        env.run()
        assert len(b.inbox) == 0
        assert b.dropped == 1

    def test_duplicating_plan_delivers_twice(self, env):
        net = faulty_net(env, FaultPlan(3, links=[LinkFault(duplicate=1.0)]))
        net.register("a")
        b = net.register("b")
        got = []

        def receiver():
            while True:
                message = yield b.inbox
                got.append((message.payload, env.now))

        env.process(receiver())
        net.send("a", "b", "twice")
        env.run(until=1.0)
        assert [payload for payload, _ in got] == ["twice", "twice"]
        assert got[1][1] > got[0][1]

    def test_loopback_exempt_from_faults(self, env):
        net = faulty_net(env, FaultPlan(3, links=[LinkFault(drop=1.0)]))
        a = net.register("a")
        net.send("a", "a", "self")
        env.run()
        assert len(a.inbox) == 1

    def test_no_plan_behaves_as_before(self, env):
        net = faulty_net(env, None)
        net.register("a")
        b = net.register("b")
        net.send("a", "b", "clean")
        env.run()
        assert len(b.inbox) == 1
