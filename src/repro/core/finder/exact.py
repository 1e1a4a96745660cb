"""The exact DPR finder (§3.3, Figure 4 top).

Every sealed version is added — with its dependency set — to a durable
precedence graph; a coordinator periodically traverses the graph and
publishes the maximal transitively-closed set of persisted tokens as
the DPR-cut.  Exact, but the durable graph can grow quadratically with
cluster size, which is the scalability concern §3.4 addresses.

The coordinator is stateless w.r.t. the durable graph: restarting it
loses nothing because the graph itself is persisted.  The *hybrid*
variant keeps the graph in memory instead and pays for that on
coordinator failure.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cuts import DprCut
from repro.core.finder.base import DprFinder, VersionTable
from repro.core.precedence import PrecedenceGraph
from repro.core.versioning import CommitDescriptor, Token


class ExactDprFinder(DprFinder):
    """Durable-graph cut finder with a coordinator traversal."""

    def __init__(self, table: Optional[VersionTable] = None,
                 enforce_monotonicity: bool = True):
        super().__init__(table)
        #: The durable precedence graph (write volume is the cost).
        #: ``enforce_monotonicity=False`` admits traces violating the
        #: §3.2 progress rule — used to demonstrate the Figure 3
        #: no-progress counter-example.
        self.graph = PrecedenceGraph(enforce_monotonicity=enforce_monotonicity)
        #: Writes to the durable graph, the §3.4 scalability metric.
        self.graph_writes = 0

    def report_seal(self, descriptor: CommitDescriptor) -> None:
        self.graph.add_commit(descriptor)
        # One durable write for the vertex plus one per dependency edge.
        self.graph_writes += 1 + len(descriptor.deps)

    def report_persisted(self, token: Token) -> None:
        # A persist may arrive for a token whose seal report the network
        # lost (at-least-once delivery guarantees retries, not order or
        # uniqueness); the durable table still advances, and the absent
        # vertex merely keeps the cut conservative.
        if token in self.graph:
            self.graph.mark_persisted(token)
        self.table.upsert(token.object_id, token.version)
        self.graph_writes += 1

    def _compute(self) -> DprCut:
        """``FindDpr()``: traverse the graph, publish the maximal cut."""
        cut = self._publish(self.graph.max_closed_cut())
        # Versions covered by a fault-tolerantly published cut can never
        # roll back; drop them from the durable graph.
        self.graph.prune_below(cut)
        return cut
