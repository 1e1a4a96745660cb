"""Tests for the FIFO queue primitive."""

import pytest

from repro.obs import Tracer
from repro.sim.kernel import Environment
from repro.sim.queues import EMPTY, BoundedQueue, Queue


def traced_env():
    tracer = Tracer()
    return Environment(tracer=tracer), tracer


class TestQueueBasics:
    def test_put_then_get(self, env):
        queue = Queue(env)
        queue.put("a")
        queue.put("b")
        got = []

        def consumer():
            got.append((yield queue))
            got.append((yield queue))

        env.process(consumer())
        env.run()
        assert got == ["a", "b"]

    def test_get_blocks_until_put(self, env):
        queue = Queue(env)
        got = []

        def consumer():
            got.append(((yield queue), env.now))

        def producer():
            yield 5
            queue.put("late")

        env.process(consumer())
        env.process(producer())
        env.run()
        assert got == [("late", 5.0)]

    def test_fifo_across_getters(self, env):
        queue = Queue(env)
        got = []

        def consumer(label):
            item = yield queue
            got.append((label, item))

        env.process(consumer("first"))
        env.process(consumer("second"))

        def producer():
            yield 1
            queue.put(1)
            queue.put(2)

        env.process(producer())
        env.run()
        assert got == [("first", 1), ("second", 2)]

    def test_len_tracks_items(self, env):
        queue = Queue(env)
        assert len(queue) == 0
        queue.put("x")
        assert len(queue) == 1

    def test_try_get(self, env):
        queue = Queue(env)
        assert queue.try_get() is None
        queue.put(7)
        assert queue.try_get() == 7
        assert queue.try_get() is None

    def test_drain(self, env):
        queue = Queue(env)
        for item in range(3):
            queue.put(item)
        assert queue.drain() == [0, 1, 2]
        assert len(queue) == 0


class TestQueueWatermarks:
    """The queue depth gauge must track both enqueue and dequeue:
    recording only on put() leaves the current-depth gauge stale-high
    forever (the PR-10 watermark bug)."""

    def test_depth_gauge_decays_after_drain(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        for item in range(3):
            queue.put(item)
        assert tracer.queue_depths["queue.jobs"] == 3
        assert queue.drain() == [0, 1, 2]
        assert tracer.queue_depths["queue.jobs"] == 0
        # The high watermark still remembers the peak.
        assert tracer.queue_high_watermarks["queue.jobs"] == 3

    def test_depth_gauge_decays_on_try_get(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        queue.put("a")
        assert queue.try_get() == "a"
        assert tracer.queue_depths["queue.jobs"] == 0

    def test_depth_gauge_decays_on_channel_wait(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        queue.put("a")
        queue.put("b")
        got = []

        def consumer():
            got.append((yield queue))
            got.append((yield queue))

        env.process(consumer())
        env.run()
        assert got == ["a", "b"]
        assert tracer.queue_depths["queue.jobs"] == 0

    def test_depth_gauge_decays_on_sink_pump(self):
        env, tracer = traced_env()
        queue = Queue(env, name="jobs")
        got = []
        queue.set_handler(got.append)
        # First put dispatches straight to the handler; the rest land in
        # the backlog while the pump is in flight.
        for item in range(4):
            queue.put(item)
        assert tracer.queue_depths["queue.jobs"] == 3
        env.run()
        assert got == [0, 1, 2, 3]
        assert tracer.queue_depths["queue.jobs"] == 0
        assert tracer.queue_high_watermarks["queue.jobs"] == 3


class TestTryGetSentinel:
    def test_try_get_distinguishes_enqueued_none(self, env):
        queue = Queue(env)
        queue.put(None)
        assert queue.try_get(EMPTY) is None  # the enqueued None itself
        assert queue.try_get(EMPTY) is EMPTY  # now genuinely empty


class TestBoundedQueue:
    def test_shed_oldest_never_exceeds_capacity(self, env):
        shed = []
        queue = BoundedQueue(env, capacity=3, name="adm",
                             on_shed=shed.append)
        for item in range(10):
            queue.put(item)
            assert len(queue) <= 3
        assert queue.drain() == [7, 8, 9]
        assert shed == [0, 1, 2, 3, 4, 5, 6]
        assert queue.shed_items == 7

    def test_sheds_are_counted_in_tracer(self):
        env, tracer = traced_env()
        queue = BoundedQueue(env, capacity=1, name="adm")
        queue.put(1)
        queue.put(2)
        assert tracer.counters["queue.adm.shed"] == 1

    def test_sink_backlog_respects_capacity(self):
        env, tracer = traced_env()
        got = []
        queue = BoundedQueue(env, capacity=2, name="adm",
                             on_shed=lambda item: None)
        queue.set_handler(got.append)
        for item in range(6):
            queue.put(item)
            assert len(queue) <= 2
        env.run()
        # 0 pumped directly; 1-3 shed as 4 and 5 arrived; 4, 5 served.
        assert got == [0, 4, 5]
        assert queue.shed_items == 3

    def test_invalid_arguments_rejected(self, env):
        with pytest.raises(ValueError):
            BoundedQueue(env, capacity=0)
        with pytest.raises(ValueError):
            BoundedQueue(env, capacity=4, policy="drop-newest")


class TestQueueClose:
    """A sink-mode queue never strands an accepted item."""

    def test_set_handler_pumps_existing_backlog(self):
        """A handler installed after items were enqueued must still see
        them (pre-fix the backlog was stranded in sink mode)."""
        env = Environment()
        queue = Queue(env, name="late-sink")
        queue.put(1)
        queue.put(2)
        got = []
        queue.set_handler(got.append)
        env.run()
        assert got == [1, 2]

    def test_close_does_not_strand_sink_backlog(self):
        """Re-installing the handler while a pump is in flight neither
        strands nor double-schedules the backlog: every accepted item
        reaches the (new) handler exactly once, in put order."""
        env = Environment()
        queue = Queue(env, name="sink")
        got = []
        queue.set_handler(lambda item: got.append(("old", item)))
        for item in range(3):
            queue.put(item)
        queue.set_handler(got.append)
        env.run()
        assert got == [0, 1, 2]
