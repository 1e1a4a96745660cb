"""Figure 17: D-Redis vs Redis throughput.

Three configurations on the same shards — plain Redis, Redis behind a
pass-through proxy, and D-Redis (libDPR proxy) — at 2/4/8 shards, in a
saturated (w=8192, b=1024) and an unsaturated (w=1024, b=16) regime.

Expected shape (§7.5): D-Redis does not reduce Redis's throughput or
scalability in either regime; the proxy baseline sits on top of
D-Redis (the network pattern, not DPR, is the cost).
"""

import pytest

from repro.bench.report import format_table


def _by_shards(rows, regime):
    return {r["#shard"]: r for r in rows if r["regime"] == regime}


@pytest.mark.benchmark(group="fig17")
def test_fig17_saturated(figure, report):
    by_n = _by_shards(figure("fig17")[1], "saturated")
    report(format_table(
        list(by_n.values()),
        title="Figure 17a: saturated (w=8192, b=1024), Mops/s"))
    # Linear shard scalability for all three.
    assert by_n[8]["redis"] > 3.0 * by_n[2]["redis"]
    assert by_n[8]["d-redis"] > 3.0 * by_n[2]["d-redis"]
    # D-Redis does not reduce saturated throughput (within 10%).
    for row in by_n.values():
        assert row["d-redis"] > 0.9 * row["redis"]


@pytest.mark.benchmark(group="fig17")
def test_fig17_unsaturated(figure, report):
    by_n = _by_shards(figure("fig17")[1], "unsaturated")
    report(format_table(
        list(by_n.values()),
        title="Figure 17b: unsaturated (w=1024, b=16), Mops/s"))
    # Still scalable.
    assert by_n[8]["d-redis"] > 2.5 * by_n[2]["d-redis"]
    # D-Redis tracks the pass-through proxy (DPR itself is not the cost).
    for row in by_n.values():
        assert row["d-redis"] > 0.9 * row["redis+proxy"]
