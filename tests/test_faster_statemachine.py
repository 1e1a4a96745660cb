"""Tests for the CPR/rollback epoch state machine (§5.5)."""

import pytest

from repro.faster.statemachine import (
    EpochStateMachine,
    Phase,
    StateMachineBusy,
)


@pytest.fixture
def machine():
    m = EpochStateMachine()
    for thread in ("t0", "t1"):
        m.register_thread(thread)
    return m


def refresh_all(machine):
    for thread in ("t0", "t1"):
        machine.refresh(thread)


class TestCheckpointMachine:
    def test_phases_in_order(self, machine):
        machine.begin_checkpoint()
        assert machine.global_state.phase is Phase.PREPARE
        refresh_all(machine)
        assert machine.global_state.phase is Phase.IN_PROGRESS
        assert machine.global_state.version == 2
        refresh_all(machine)
        assert machine.global_state.phase is Phase.WAIT_FLUSH
        machine.complete_flush()
        assert machine.global_state.phase is Phase.REST

    def test_waits_for_all_threads(self, machine):
        machine.begin_checkpoint()
        machine.refresh("t0")
        assert machine.global_state.phase is Phase.PREPARE
        machine.refresh("t1")
        assert machine.global_state.phase is Phase.IN_PROGRESS

    def test_threads_see_new_version_on_refresh(self, machine):
        machine.begin_checkpoint()
        refresh_all(machine)
        context = machine.refresh("t0")
        assert context.version == 2

    def test_target_version_fast_forward(self, machine):
        machine.begin_checkpoint(target_version=7)
        refresh_all(machine)
        assert machine.global_state.version == 7

    def test_target_must_exceed_current(self, machine):
        with pytest.raises(ValueError):
            machine.begin_checkpoint(target_version=1)

    def test_busy_machine_rejects_second_checkpoint(self, machine):
        machine.begin_checkpoint()
        with pytest.raises(StateMachineBusy):
            machine.begin_checkpoint()

    def test_complete_flush_requires_wait_flush(self, machine):
        with pytest.raises(StateMachineBusy):
            machine.complete_flush()

    def test_established_hooks_fire_once(self, machine):
        fired = []
        machine.on_established[Phase.IN_PROGRESS].append(
            lambda: fired.append(machine.global_state.version))
        machine.begin_checkpoint()
        refresh_all(machine)
        refresh_all(machine)
        assert fired == [2]


class TestRollbackMachine:
    def test_throw_purge_rest(self, machine):
        rolled = machine.begin_rollback(safe_version=0)
        assert rolled == 1
        assert machine.global_state.phase is Phase.THROW
        assert machine.global_state.version == 2  # v+1 immediately
        refresh_all(machine)
        assert machine.global_state.phase is Phase.PURGE
        machine.complete_purge()
        assert machine.global_state.phase is Phase.REST

    def test_rollback_during_checkpoint_rejected(self, machine):
        machine.begin_checkpoint()
        with pytest.raises(StateMachineBusy):
            machine.begin_rollback(0)

    def test_purge_range_visible_during_rollback(self, machine):
        machine.begin_checkpoint()
        refresh_all(machine)
        refresh_all(machine)
        machine.complete_flush()  # now at version 2, REST
        machine.begin_rollback(safe_version=1)
        state = machine.global_state
        assert state.safe_version == 1
        assert state.boundary_version == 2


class TestThreadManagement:
    def test_register_joins_current_state(self, machine):
        machine.begin_checkpoint()
        context = machine.register_thread("t2")
        assert context.phase is Phase.PREPARE

    def test_register_idempotent(self, machine):
        first = machine.register_thread("t0")
        second = machine.register_thread("t0")
        assert first is second
        assert machine._threads["t0"] is first

    def test_single_thread_walks_through(self):
        machine = EpochStateMachine()
        machine.register_thread("only")
        machine.begin_checkpoint()
        for _ in range(3):
            machine.refresh("only")
        assert machine.global_state.phase is Phase.WAIT_FLUSH
