"""Figure 13: the throughput-latency trade-off across batch sizes.

Batch size sweeps from 1 to 1024 with w = 16 b (Zipfian 50:50, 100 ms
checkpoints).  Expected shape (§7.2): throughput climbs steeply with
batch size until saturation, after which larger batches only add
latency; the sweet spot sits at a moderate batch size where throughput
is near peak at ~1 ms latency.
"""

import pytest

from repro.bench.report import format_table


@pytest.mark.benchmark(group="fig13")
def test_fig13_throughput_latency_tradeoff(figure, report):
    title, rows, _ = figure("fig13")
    report(format_table(rows, title=title))

    tput = {r["b"]: r["tput_mops"] for r in rows}
    lat_ms = {r["b"]: r["op_p50_ms"] for r in rows}
    # Throughput grows by orders of magnitude from b=1 to saturation.
    assert tput[1024] > 10 * tput[1]
    # Saturation: the last doubling buys little throughput...
    assert tput[1024] < 1.5 * tput[256]
    # ...but costs latency.
    assert lat_ms[1024] > 1.5 * lat_ms[64]
    # The mid-range sweet spot: near-saturated at ~1ms latency.
    assert tput[64] > 0.3 * tput[1024]
    assert lat_ms[64] < 3.0
