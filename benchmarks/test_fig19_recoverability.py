"""Figure 19: throughput impact of recoverability guarantees.

Four levels (None, Eventual, DPR, Synchronous) across Cassandra,
D-Redis and D-FASTER on uniform YCSB-A, 8 nodes.  Unsupported cells
print N/A, matching the paper's matrix.

Expected shape (§7.6): in both D-Redis and D-FASTER, DPR performs like
eventual recoverability despite providing prefix guarantees, while
synchronous recoverability costs far more — a trend visible across all
three systems despite their orders-of-magnitude different absolute
throughputs.
"""

import pytest

from repro.bench.report import format_table


@pytest.mark.benchmark(group="fig19")
def test_fig19_recoverability_levels(figure, report):
    title, rows, _ = figure("fig19")
    report(format_table(rows, title=title))

    by_system = {row["system"]: row for row in rows}
    cassandra = by_system["cassandra"]
    dredis = by_system["d-redis"]
    dfaster = by_system["d-faster"]
    # DPR ~= eventual on both DPR systems (within 15%).
    assert dredis["dpr"] > 0.85 * dredis["eventual"]
    assert dfaster["dpr"] > 0.85 * dfaster["eventual"]
    # Synchronous recoverability costs much more, on every system.
    assert dredis["sync"] < 0.3 * dredis["dpr"]
    assert cassandra["sync"] < 0.7 * cassandra["eventual"]
    # The support matrix matches the paper's N/A cells.
    assert cassandra["dpr"] is None
    assert cassandra["none"] is None
    assert dfaster["sync"] is None
