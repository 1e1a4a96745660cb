"""Tests for world-line tracking (§4.2)."""

from repro.core.worldline import WorldLine, WorldLineDecision, gate


class TestGate:
    def test_equal_executes(self):
        assert gate(2, 2) is WorldLineDecision.EXECUTE

    def test_object_ahead_rejects(self):
        assert gate(3, 1) is WorldLineDecision.REJECT

    def test_client_ahead_delays(self):
        assert gate(1, 3) is WorldLineDecision.DELAY


class TestWorldLine:
    def test_starts_at_zero(self):
        assert WorldLine().current == 0

    def test_advance_forward(self):
        line = WorldLine()
        assert line.advance_to(3)
        assert line.current == 3

    def test_advance_backwards_ignored(self):
        line = WorldLine()
        line.advance_to(5)
        assert not line.advance_to(3)
        assert line.current == 5

    def test_advance_same_is_noop(self):
        line = WorldLine()
        line.advance_to(2)
        assert not line.advance_to(2)

    def test_gate_through_instance(self):
        line = WorldLine()
        line.advance_to(1)
        assert line.gate(1) is WorldLineDecision.EXECUTE
        assert line.gate(0) is WorldLineDecision.REJECT
        assert line.gate(2) is WorldLineDecision.DELAY
