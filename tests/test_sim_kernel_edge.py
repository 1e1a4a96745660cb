"""Edge-case tests for simulation kernel processes."""

import pytest

from repro.sim.kernel import Environment


class TestProcessComposition:
    def test_chained_joins(self, env):
        def leaf():
            yield 1
            return 1

        def middle():
            value = yield env.process(leaf())
            yield 1
            return value + 1

        def root():
            value = yield env.process(middle())
            return value + 1

        process = env.process(root())
        env.run()
        assert process.value == 3
        assert env.now == 2.0

    def test_many_concurrent_processes(self, env):
        done = []

        def worker(i):
            yield i * 0.001
            done.append(i)

        for i in range(200):
            env.process(worker(i))
        env.run()
        assert done == sorted(done)
        assert len(done) == 200

    def test_join_already_finished_process(self, env):
        def quick():
            yield 1
            return "done"

        process = env.process(quick())
        env.run()

        def late_joiner():
            value = yield process
            return value

        joiner = env.process(late_joiner())
        env.run()
        assert joiner.value == "done"

    def test_two_joiners_same_process(self, env):
        def child():
            yield 1
            return 7

        child_process = env.process(child())
        results = []

        def joiner(label):
            value = yield child_process
            results.append((label, value))

        env.process(joiner("a"))
        env.process(joiner("b"))
        env.run()
        assert sorted(results) == [("a", 7), ("b", 7)]


class TestClockSemantics:
    def test_run_until_between_events(self, env):
        fired = []

        def proc():
            yield 1.0
            fired.append(1)
            yield 1.0
            fired.append(2)

        env.process(proc())
        env.run(until=1.5)
        assert fired == [1]
        assert env.now == 1.5
        env.run(until=2.5)
        assert fired == [1, 2]

    def test_run_empty_heap_with_until(self):
        env = Environment()
        env.run(until=5.0)
        assert env.now == 5.0

    def test_resumable_run(self, env):
        values = []

        def ticker():
            while True:
                yield 1
                values.append(env.now)

        env.process(ticker())
        env.run(until=3)
        count_at_3 = len(values)
        env.run(until=6)
        assert len(values) == count_at_3 + 3
