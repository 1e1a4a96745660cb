"""Figure 15: co-location throughput.

Client threads pinned to worker vCPUs; the sweep varies the fraction of
operations that are *remote* and the batch size used for remote
operations (Zipfian 50:50).

Expected shape (§7.3): with most operations local, co-location beats
dedicated servers regardless of batch size (local operations are
unaffected by batching); as the remote fraction grows, throughput
falls — catastrophically for small batches, because a session blocked
on its remote window cannot run ahead.
"""

import pytest

from repro.bench.report import format_table


@pytest.mark.benchmark(group="fig15")
def test_fig15_colocation(figure, report):
    title, rows, _ = figure("fig15")
    report(format_table(rows, title=title))

    by_remote = {r["remote%"]: r for r in rows}
    dedicated = by_remote["dedicated"]["b=1024"]
    # All-local runs are batch-size independent and beat dedicated.
    local = by_remote[0]
    assert abs(local["b=1"] - local["b=1024"]) < 0.15 * local["b=1024"]
    assert local["b=1024"] > dedicated
    # Throughput declines with remote fraction at every batch size.
    for key in ("b=1", "b=16", "b=1024"):
        assert by_remote[100][key] < by_remote[0][key]
    # Small batches crater once remote ops dominate (log-scale drop).
    assert by_remote[75]["b=1"] < 0.15 * by_remote[0]["b=1"]
    # Large batches degrade but stay in the same order of magnitude.
    assert by_remote[100]["b=1024"] > 0.2 * by_remote[0]["b=1024"]
