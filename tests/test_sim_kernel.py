"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import Environment, SimulationError


class TestEvent:
    def test_succeed_delivers_value(self, env):
        event = env.event()
        results = []

        def waiter():
            value = yield event
            results.append(value)

        env.process(waiter())
        event.succeed(42)
        env.run()
        assert results == [42]

    def test_fail_raises_in_waiter(self, env):
        event = env.event()
        caught = []

        def waiter():
            try:
                yield event
            except ValueError as error:
                caught.append(str(error))

        env.process(waiter())
        event.fail(ValueError("boom"))
        env.run()
        assert caught == ["boom"]

    def test_double_trigger_rejected(self, env):
        event = env.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_rejected(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_callback_after_trigger_runs_immediately(self, env):
        event = env.event()
        event.succeed("x")
        seen = []

        def late_waiter():
            yield 1.0  # the event fires and dispatches meanwhile
            value = yield event
            seen.append((value, env.now))

        env.process(late_waiter())
        env.run()
        assert seen == [("x", 1.0)]


class TestTimeout:
    """Timed waits: a process sleeps by yielding a number of seconds."""

    def test_advances_clock(self, env):
        times = []

        def proc():
            yield 1.5
            times.append(env.now)
            yield 0.5
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.5, 2.0]

    def test_zero_delay_allowed(self, env):
        def proc():
            yield 0
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_later(-1, print)

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(delay, label):
            yield delay
            order.append(label)

        env.process(waiter(3, "c"))
        env.process(waiter(1, "a"))
        env.process(waiter(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_tie_broken_by_insertion_order(self, env):
        order = []

        def waiter(label):
            yield 1
            order.append(label)

        for label in "abc":
            env.process(waiter(label))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value_joins(self, env):
        def child():
            yield 2
            return "result"

        def parent():
            value = yield env.process(child())
            return ("got", value, env.now)

        process = env.process(parent())
        env.run()
        assert process.value == ("got", "result", 2.0)

    def test_strict_mode_raises_out_of_run(self, env):
        def bad():
            yield 1
            raise RuntimeError("escape")

        env.process(bad())
        with pytest.raises(RuntimeError, match="escape"):
            env.run()

    def test_yield_non_event_rejected(self, env):
        def bad():
            yield "not an event"

        env.process(bad())
        with pytest.raises(SimulationError):
            env.run()

    def test_yield_number_sleeps(self, env):
        times = []

        def proc():
            yield 1.5
            times.append(env.now)
            yield 1
            times.append(env.now)
            yield 0
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.5, 2.5, 2.5]

    def test_yield_negative_number_rejected(self, env):
        def bad():
            yield -0.5

        env.process(bad())
        with pytest.raises(ValueError):
            env.run()

    def test_is_alive(self, env):
        # A process is alive until it triggers: it is its own join event.
        def proc():
            yield 5

        process = env.process(proc())
        assert not process.triggered
        env.run()
        assert process.triggered


class TestEnvironment:
    def test_run_until_stops_clock(self, env):
        fired = []

        def proc():
            yield 10
            fired.append(True)

        env.process(proc())
        env.run(until=5)
        assert env.now == 5
        assert not fired
        env.run()
        assert fired

    def test_peek(self, env):
        assert env.peek() is None
        env.call_later(3, print)
        assert env.peek() == 3

    def test_nested_run_rejected(self, env):
        def proc():
            env.run()
            yield 1

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_determinism(self):
        def build():
            env = Environment()
            log = []

            def worker(label, delay):
                for _ in range(3):
                    yield delay
                    log.append((env.now, label))

            env.process(worker("x", 1.0))
            env.process(worker("y", 0.7))
            env.run()
            return log

        assert build() == build()
