"""Tests for the seeded-randomness helpers."""

import random

from repro.sim.rand import make_rng, spawn


class TestMakeRng:
    def test_from_int_deterministic(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_passthrough_rng(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_none_gives_fresh(self):
        assert isinstance(make_rng(None), random.Random)


class TestSpawn:
    def test_children_deterministic_given_parent_seed(self):
        first = spawn(make_rng(1), "net").random()
        second = spawn(make_rng(1), "net").random()
        assert first == second

    def test_labels_give_distinct_streams(self):
        parent = make_rng(1)
        a = spawn(parent, "a")
        parent2 = make_rng(1)
        b = spawn(parent2, "b")
        assert a.random() != b.random()
