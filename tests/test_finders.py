"""Tests for the exact, approximate, and hybrid cut finders."""

import pytest

from repro.core import InMemoryStateObject
from repro.core.cuts import DprCut
from repro.core.finder import (
    ApproximateDprFinder,
    ExactDprFinder,
    HybridDprFinder,
    VersionTable,
)
from repro.core.versioning import CommitDescriptor, Token


def seal(finder, object_id, version, deps=(), persist=True):
    descriptor = CommitDescriptor(
        token=Token(object_id, version),
        deps=frozenset(Token(o, v) for o, v in deps),
    )
    finder.report_seal(descriptor)
    if persist:
        finder.report_persisted(descriptor.token)
    return descriptor


class TestVersionTable:
    def test_upsert_monotonic(self):
        table = VersionTable()
        table.upsert("A", 3)
        table.upsert("A", 1)
        assert table.rows() == {"A": 3}

    def test_min_max(self):
        table = VersionTable()
        table.upsert("A", 3)
        table.upsert("B", 7)
        assert table.min_version() == 3
        assert table.max_version() == 7

    def test_empty_aggregates(self):
        table = VersionTable()
        assert table.min_version() == 0
        assert table.max_version() == 0

    def test_world_line_monotonic(self):
        table = VersionTable()
        table.publish_world_line(2)
        table.publish_world_line(1)
        assert table.read_world_line() == 2


class TestApproximate:
    def test_cut_is_min_version(self):
        finder = ApproximateDprFinder()
        finder.register_object("A")
        finder.register_object("B")
        seal(finder, "A", 3)
        seal(finder, "B", 1)
        cut = finder.tick()
        assert cut.versions == {"A": 1, "B": 1}

    def test_unregistered_laggard_holds_cut(self):
        finder = ApproximateDprFinder()
        finder.register_object("A")
        finder.register_object("B")
        seal(finder, "A", 3)
        # B never committed: min is NEVER_COMMITTED -> empty cut.
        assert finder.tick().versions == {}

    def test_vmax_exposed_for_fast_forward(self):
        finder = ApproximateDprFinder()
        seal(finder, "A", 9)
        assert finder.max_version() == 9

    def test_cut_monotonic_across_membership_change(self):
        finder = ApproximateDprFinder()
        seal(finder, "A", 5)
        seal(finder, "B", 5)
        first = finder.tick()
        finder.register_object("C")  # new member at version 0
        second = finder.tick()
        assert second.dominates(first)

    def test_halted_freezes_cut(self):
        finder = ApproximateDprFinder()
        seal(finder, "A", 1)
        first = finder.tick()
        finder.halted = True
        seal(finder, "A", 5)
        assert finder.tick().versions == first.versions
        finder.halted = False
        assert finder.tick().version_of("A") == 5


class TestExact:
    def test_respects_dependencies(self):
        finder = ExactDprFinder()
        seal(finder, "A", 1)
        seal(finder, "B", 1, deps=[("A", 1)])
        seal(finder, "A", 2, deps=[("B", 1)], persist=False)
        cut = finder.tick()
        assert cut.versions == {"A": 1, "B": 1}

    def test_tighter_than_approximate(self):
        # Exact can include independent high versions the min rule
        # cannot.
        table_e, table_a = VersionTable(), VersionTable()
        exact, approx = ExactDprFinder(table_e), ApproximateDprFinder(table_a)
        for finder in (exact, approx):
            seal(finder, "A", 5)
            seal(finder, "B", 1)
        assert exact.tick().version_of("A") == 5
        assert approx.tick().version_of("A") == 1

    def test_prunes_graph_below_cut(self):
        finder = ExactDprFinder()
        seal(finder, "A", 1)
        seal(finder, "A", 2)
        finder.tick()
        assert Token("A", 1) not in finder.graph

    def test_graph_write_accounting(self):
        finder = ExactDprFinder()
        seal(finder, "A", 1)
        seal(finder, "B", 1, deps=[("A", 1)])
        # 2 vertices + 1 edge + 2 persists.
        assert finder.graph_writes == 5


class TestHybrid:
    def test_failure_free_matches_exact(self):
        hybrid = HybridDprFinder()
        seal(hybrid, "A", 5)
        seal(hybrid, "B", 1)
        # Exact upgrade over the approximate floor.
        assert hybrid.tick().version_of("A") == 5

    def test_crash_stalls_exact_until_vmin_passes(self):
        hybrid = HybridDprFinder()
        seal(hybrid, "A", 2)
        seal(hybrid, "B", 2)
        first = hybrid.tick()
        assert first.version_of("A") == 2
        hybrid.crash_coordinator(horizon=10)
        # New seals reference the lost subgraph region.
        seal(hybrid, "A", 5, deps=[("B", 4)], persist=True)
        cut = hybrid.tick()
        # Exact proof impossible (graph lost); approximate floor rules.
        assert cut.version_of("A") == 2
        assert not hybrid.recovered
        # Approximate catches up past the horizon.
        seal(hybrid, "A", 11)
        seal(hybrid, "B", 11)
        cut = hybrid.tick()
        assert hybrid.recovered
        assert cut.version_of("A") == 11

    def test_crash_defaults_horizon_to_table_max(self):
        hybrid = HybridDprFinder()
        seal(hybrid, "A", 7)
        hybrid.crash_coordinator()
        assert hybrid._graph_floor == 7

    def test_cut_never_regresses_across_crash(self):
        hybrid = HybridDprFinder()
        seal(hybrid, "A", 3)
        seal(hybrid, "B", 3)
        before = hybrid.tick()
        hybrid.crash_coordinator()
        after = hybrid.tick()
        assert after.dominates(before)


class TestEndToEnd:
    @pytest.mark.parametrize("finder_cls", [
        ExactDprFinder, ApproximateDprFinder, HybridDprFinder,
    ])
    def test_finders_agree_on_quiesced_trace(self, finder_cls):
        finder = finder_cls()
        objects = {name: InMemoryStateObject(name) for name in "ABC"}
        for finder_obj in objects:
            finder.register_object(finder_obj)
        vs = 0
        for index in range(30):
            obj = objects["ABC"[index % 3]]
            result = obj.execute(("set", index, index), min_version=vs)
            vs = max(vs, result.version)
            if index % 7 == 0:
                descriptor = obj.commit()
                finder.report_seal(descriptor)
                finder.report_persisted(descriptor.token)
        # Quiesce: align every object to the global max version (the
        # §3.4 Vmax rule) and commit, so exact and approximate converge.
        global_max = max(obj.version for obj in objects.values())
        for obj in objects.values():
            obj.fast_forward(global_max)
            for auto in obj.drain_sealed():
                finder.report_seal(auto)
                finder.report_persisted(auto.token)
            descriptor = obj.commit()
            finder.report_seal(descriptor)
            finder.report_persisted(descriptor.token)
        cut = finder.tick()
        # Every object fully covered after quiescing.
        for name, obj in objects.items():
            assert cut.version_of(name) == obj.max_persisted_version
