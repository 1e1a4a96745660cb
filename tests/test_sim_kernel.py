"""Tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import (
    Environment,
    Event,
    Interrupt,
    SimulationError,
    Timeout,
)


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
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]


class TestTimeout:
    def test_advances_clock(self, env):
        times = []

        def proc():
            yield env.timeout(1.5)
            times.append(env.now)
            yield env.timeout(0.5)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [1.5, 2.0]

    def test_zero_delay_allowed(self, env):
        def proc():
            yield env.timeout(0)
            return env.now

        process = env.process(proc())
        env.run()
        assert process.value == 0.0

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_value_passthrough(self, env):
        def proc():
            value = yield env.timeout(1, value="done")
            return value

        process = env.process(proc())
        env.run()
        assert process.value == "done"

    def test_timeouts_fire_in_order(self, env):
        order = []

        def waiter(delay, label):
            yield env.timeout(delay)
            order.append(label)

        env.process(waiter(3, "c"))
        env.process(waiter(1, "a"))
        env.process(waiter(2, "b"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_tie_broken_by_insertion_order(self, env):
        order = []

        def waiter(label):
            yield env.timeout(1)
            order.append(label)

        for label in "abc":
            env.process(waiter(label))
        env.run()
        assert order == ["a", "b", "c"]


class TestProcess:
    def test_return_value_joins(self, env):
        def child():
            yield env.timeout(2)
            return "result"

        def parent():
            value = yield env.process(child())
            return ("got", value, env.now)

        process = env.process(parent())
        env.run()
        assert process.value == ("got", "result", 2.0)

    def test_exception_propagates_to_joiner_when_not_strict(self):
        env = Environment(strict=False)

        def child():
            yield env.timeout(1)
            raise RuntimeError("child died")

        def parent():
            try:
                yield env.process(child())
            except RuntimeError as error:
                return str(error)

        process = env.process(parent())
        env.run()
        assert process.value == "child died"

    def test_strict_mode_raises_out_of_run(self, env):
        def bad():
            yield env.timeout(1)
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
        # The sleep fast path: ``yield delay`` == ``yield env.timeout(delay)``.
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

    def test_sleep_and_timeout_share_ordering(self, env):
        # A plain-number sleep must occupy the same place in the tie-break
        # order a Timeout would have.
        order = []

        def sleeper(label):
            yield 1
            order.append(label)

        def timeouter(label):
            yield env.timeout(1)
            order.append(label)

        env.process(sleeper("a"))
        env.process(timeouter("b"))
        env.process(sleeper("c"))
        env.run()
        assert order == ["a", "b", "c"]

    def test_interrupt_during_number_sleep(self, env):
        caught = []

        def sleeper():
            try:
                yield 10
            except Interrupt as interrupt:
                caught.append((env.now, interrupt.cause))
            yield 1

        def interrupter(target):
            yield 2
            target.interrupt("wake")

        target = env.process(sleeper())
        env.process(interrupter(target))
        env.run()
        assert caught == [(2.0, "wake")]
        # The stale sleep wake-up at t=10 must not resume the process
        # again: it finished at t=3.
        assert env.now >= 10 or not target.is_alive

    def test_is_alive(self, env):
        def proc():
            yield env.timeout(5)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive


class TestInterrupt:
    def test_interrupt_wakes_sleeper(self, env):
        outcome = []

        def sleeper():
            try:
                yield env.timeout(100)
                outcome.append("slept")
            except Interrupt as interrupt:
                outcome.append(("interrupted", interrupt.cause, env.now))

        def waker(target):
            yield env.timeout(2)
            target.interrupt("wake up")

        target = env.process(sleeper())
        env.process(waker(target))
        env.run()
        assert outcome == [("interrupted", "wake up", 2.0)]

    def test_interrupt_finished_process_is_noop(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        process.interrupt("too late")  # must not raise

    def test_process_survives_interrupt_and_continues(self, env):
        log = []

        def resilient():
            try:
                yield env.timeout(100)
            except Interrupt:
                log.append("caught")
            yield env.timeout(1)
            log.append(env.now)

        def waker(target):
            yield env.timeout(3)
            target.interrupt()

        target = env.process(resilient())
        env.process(waker(target))
        env.run()
        assert log == ["caught", 4.0]


class TestEnvironment:
    def test_run_until_stops_clock(self, env):
        fired = []

        def proc():
            yield env.timeout(10)
            fired.append(True)

        env.process(proc())
        env.run(until=5)
        assert env.now == 5
        assert not fired
        env.run()
        assert fired

    def test_peek(self, env):
        assert env.peek() is None
        env.timeout(3)
        # The initial start event of a process is scheduled at time 0.
        assert env.peek() == 0 or env.peek() == 3

    def test_nested_run_rejected(self, env):
        def proc():
            env.run()
            yield env.timeout(1)

        env.process(proc())
        with pytest.raises(SimulationError):
            env.run()

    def test_determinism(self):
        def build():
            env = Environment()
            log = []

            def worker(label, delay):
                for _ in range(3):
                    yield env.timeout(delay)
                    log.append((env.now, label))

            env.process(worker("x", 1.0))
            env.process(worker("y", 0.7))
            env.run()
            return log

        assert build() == build()
