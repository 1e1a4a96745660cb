"""Ablation (§5.4): relaxed vs strict DPR under PENDING operations.

A session interleaves fast local operations with slow remote (PENDING)
ones.  Under strict DPR the commit watermark cannot pass an unresolved
operation, so one slow operation stalls the whole session's commit;
relaxed DPR lets independent later operations commit, carving the slow
one out via the exception list.
"""

import pytest

from repro.bench.report import format_table
from repro.core.cuts import DprCut
from repro.core.session import Session

OPS = 200
PENDING_EVERY = 10


def _drive(relaxed: bool):
    """One local/pending mix; returns committed watermark progression."""
    session = Session("s", strict=False)
    pending = []
    for index in range(1, OPS + 1):
        header = session.issue("A")
        if index % PENDING_EVERY == 0:
            pending.append(header.seqno)  # stays unresolved
        else:
            session.complete(header.seqno, version=1)
    cut = DprCut({"A": 1})
    if relaxed:
        session.refresh_commit(cut)  # returns the retired spans
        watermark = session.committed_seqno
        exceptions = len(session.committed_exceptions)
    else:
        # Strict semantics: the watermark stops at the first
        # unresolved serial (no exception list).
        watermark = min(pending) - 1
        exceptions = 0
    return watermark, exceptions


@pytest.mark.benchmark(group="ablation")
def test_relaxed_vs_strict_commit_progress(benchmark, report):
    def run():
        return _drive(relaxed=True), _drive(relaxed=False)

    (relaxed, strict) = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        {"mode": "relaxed DPR (§5.4)", "committed_watermark": relaxed[0],
         "exception_list": relaxed[1]},
        {"mode": "strict DPR", "committed_watermark": strict[0],
         "exception_list": strict[1]},
    ]
    report(format_table(
        rows, title=f"Ablation: commit watermark after {OPS} ops with a "
                    f"pending op every {PENDING_EVERY}"))
    # Relaxed commits everything resolvable; strict stalls at the first
    # pending operation.
    assert relaxed[0] >= OPS - 1
    assert strict[0] == PENDING_EVERY - 1
    assert relaxed[1] == OPS // PENDING_EVERY - (1 if OPS % PENDING_EVERY == 0 else 0)
