"""Ablation (§3.2, Figure 3): no cuts without coordination.

Reproduces the paper's counter-example: two StateObjects, one client
alternating between them, with commits staggered so that no pair of
tokens ever forms a DPR-cut — the system makes *zero* commit progress
despite committing continuously.  Adding the ``Vs``
version-propagation rule (each request carries the session's largest
seen version and the StateObject fast-forwards) restores progress.
"""

import pytest

from repro.bench.report import format_table
from repro.core import InMemoryStateObject
from repro.core.finder import ExactDprFinder
from repro.core.libdpr import DprClientSession, DprServer

ROUNDS = 60


def _alternating_run(use_version_propagation: bool):
    """The Figure 3 trace; returns the committed seqno at the end."""
    # Without Vs propagation the trace violates monotonicity — that is
    # the point — so the graph must admit such dependencies.
    finder = ExactDprFinder(
        enforce_monotonicity=use_version_propagation)
    objects = {name: InMemoryStateObject(name) for name in "AB"}
    servers = {name: DprServer(obj, finder)
               for name, obj in objects.items()}
    session = DprClientSession("S")
    ops_done = 0
    for round_index in range(ROUNDS):
        target = "A" if round_index % 2 == 0 else "B"
        header = session.prepare_batch(target, 1)
        if not use_version_propagation:
            # Strip the Vs field: the §3.2 rule disabled.
            header = type(header)(
                session_id=header.session_id,
                world_line=header.world_line,
                min_version=0,
                first_seqno=header.first_seqno,
                count=header.count,
                deps=header.deps,
            )
        response = servers[target].process_batch(
            header, [("set", round_index, round_index)])
        session.absorb_response(response)
        ops_done += 1
        # The staggered commit schedule from Figure 3 (ops 1,3,5,...
        # go to A and 2,4,6,... to B): A-1 = {1,3}, B-1 = {2,4,6},
        # A-2 = {5,7,9}, B-2 = {8,10,12}, ...  Each token's newest
        # operation follows an operation in the *other* object's next,
        # still-uncommitted version, so every token depends on a future
        # token and no pair ever forms a DPR-cut.
        if target == "A" and round_index % 6 == 2:
            servers["A"].commit()
        if target == "B" and round_index % 6 == 5:
            servers["B"].commit()
    cut = finder.tick()
    session.refresh_commit(cut)
    return session.committed_seqno, ops_done, finder


@pytest.mark.benchmark(group="ablation")
def test_no_cuts_without_coordination(benchmark, report):
    def run():
        without = _alternating_run(use_version_propagation=False)
        with_vs = _alternating_run(use_version_propagation=True)
        return without, with_vs

    (without, with_vs) = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"config": "uncoordinated commits (Fig 3)",
         "ops_completed": without[1], "ops_committed": without[0]},
        {"config": "Vs propagation (§3.2)",
         "ops_completed": with_vs[1], "ops_committed": with_vs[0]},
    ]
    report(format_table(
        rows, title="Ablation: commit progress with and without the "
                    "version-propagation rule"))
    # Without coordination the committed prefix NEVER advances — every
    # token depends on a future token; with Vs it tracks completion.
    assert without[0] == 0
    assert with_vs[0] > ROUNDS - 8
