"""Figure 18: latency distribution of D-Redis vs Redis.

The unsaturated regime (small batches, shallow window), comparing
plain Redis, Redis through a pass-through proxy, and D-Redis.

Expected shape (§7.5): D-Redis adds roughly 30% latency over plain
Redis — and the pass-through proxy shows the same penalty, pinning the
cost on the extra network hop rather than the DPR algorithm.
"""

import pytest

from repro.bench.report import format_latency_histogram, format_table


@pytest.mark.benchmark(group="fig18")
def test_fig18_latency(figure, report):
    title, rows, results = figure("fig18")
    text = format_table(rows, title=title)
    for row, result in zip(rows, results):
        text += "\n\n" + format_latency_histogram(
            [v * 1e3 for v in result.stats.operation_latency._samples],
            f"latency distribution: {row['config']}")
    report(text)

    p50 = {row["config"]: row["p50_ms"] for row in rows}
    # D-Redis costs extra latency over plain Redis...
    assert p50["d-redis"] > 1.1 * p50["redis"]
    # ...but no worse than a pass-through proxy: the network pattern,
    # not the DPR algorithm, dominates.
    assert p50["d-redis"] < 1.15 * p50["redis+proxy"]
