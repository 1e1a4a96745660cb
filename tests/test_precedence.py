"""Tests for the precedence graph and maximal-cut computation."""

import pytest

from repro.core.cuts import DprCut
from repro.core.precedence import MonotonicityViolation, PrecedenceGraph
from repro.core.versioning import CommitDescriptor, Token


def commit(graph, object_id, version, deps=(), persisted=True):
    descriptor = CommitDescriptor(
        token=Token(object_id, version),
        deps=frozenset(Token(o, v) for o, v in deps),
    )
    graph.add_commit(descriptor)
    if persisted:
        graph.mark_persisted(descriptor.token)
    return descriptor


class TestConstruction:
    def test_duplicate_commit_rejected(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 1)
        with pytest.raises(ValueError):
            commit(graph, "A", 1)

    def test_non_increasing_version_rejected(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 2)
        with pytest.raises(ValueError):
            commit(graph, "A", 1)

    def test_monotonicity_enforced(self):
        graph = PrecedenceGraph()
        with pytest.raises(MonotonicityViolation):
            commit(graph, "B", 1, deps=[("A", 2)])

    def test_monotonicity_optional(self):
        graph = PrecedenceGraph(enforce_monotonicity=False)
        commit(graph, "B", 1, deps=[("A", 2)])  # allowed
        assert Token("B", 1) in graph

    def test_mark_persisted_unknown_rejected(self):
        graph = PrecedenceGraph()
        with pytest.raises(KeyError):
            graph.mark_persisted(Token("A", 1))

    def test_deps_merged_per_object(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 1)
        commit(graph, "A", 2)
        descriptor = commit(graph, "B", 3, deps=[("A", 1), ("A", 2)])
        stored = graph.descriptor(descriptor.token)
        assert stored.deps == frozenset({Token("A", 2)})


class TestMaxClosedCut:
    def test_figure2_cut(self):
        # The paper's Figure 2: tokens A-1, A-2, B-1, B-2, C-2 with
        # edges B-1->A-1, B-2->A-2, A-2->B-1, C-2->A-2, B-2->C-2 (via
        # sessions); with only A-1 and B-1 persisted the maximal cut is
        # {A-1, B-1}.
        graph = PrecedenceGraph()
        commit(graph, "A", 1)
        commit(graph, "B", 1, deps=[("A", 1)])
        commit(graph, "A", 2, deps=[("B", 1)], persisted=False)
        commit(graph, "C", 2, deps=[("A", 2)], persisted=False)
        commit(graph, "B", 2, deps=[("A", 2), ("C", 2)], persisted=False)
        cut = graph.max_closed_cut()
        assert cut.versions == {"A": 1, "B": 1}

    def test_everything_persisted(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 1)
        commit(graph, "B", 1, deps=[("A", 1)])
        commit(graph, "A", 2, deps=[("B", 1)])
        cut = graph.max_closed_cut()
        assert cut.versions == {"A": 2, "B": 1}

    def test_unpersisted_dep_blocks(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 1, persisted=False)
        commit(graph, "B", 1, deps=[("A", 1)])
        cut = graph.max_closed_cut()
        # B-1 depends on the unpersisted A-1: neither enters the cut.
        assert cut.versions == {}

    def test_retreat_to_earlier_persisted(self):
        graph = PrecedenceGraph()
        commit(graph, "B", 1)
        commit(graph, "A", 1, persisted=False)
        commit(graph, "B", 2, deps=[("A", 1)])
        cut = graph.max_closed_cut()
        assert cut.versions == {"B": 1}

    def test_floor_satisfies_old_deps(self):
        # Hybrid-finder recovery: deps below the floor are externally
        # known durable.
        graph = PrecedenceGraph()
        commit(graph, "B", 5, deps=[("A", 3)])  # A-3 not in this graph
        cut = graph.max_closed_cut(floor=3)
        assert cut.version_of("B") == 5

    def test_floor_does_not_cover_newer_deps(self):
        graph = PrecedenceGraph()
        commit(graph, "B", 5, deps=[("A", 4)])
        cut = graph.max_closed_cut(floor=3)
        assert cut.version_of("B") == 3  # retreats to the floor

    def test_empty_graph(self):
        assert PrecedenceGraph().max_closed_cut().versions == {}


class TestMaintenance:
    def test_prune_below(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 1)
        commit(graph, "A", 2)
        commit(graph, "B", 1)
        removed = graph.prune_below(DprCut.of(Token("A", 1), Token("B", 1)))
        assert removed == 2
        assert Token("A", 1) not in graph
        assert Token("A", 2) in graph

    def test_max_persisted_version(self):
        graph = PrecedenceGraph()
        commit(graph, "A", 1)
        commit(graph, "A", 3, persisted=False)
        assert graph.max_persisted_version("A") == 1
        assert graph.max_persisted_version("nope") == 0
