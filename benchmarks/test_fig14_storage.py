"""Figure 14: sensitivity to storage latency.

Throughput vs checkpoint interval (500 -> 25 ms) for the null, local
SSD and cloud SSD backends (Zipfian 50:50).

Expected shape (§7.2): at long intervals the three backends sit within
~15% of each other; shrinking the interval widens the gap, and cloud
SSD *thrashes* once the flush takes longer than the interval (50 ms
and below) while null/local degrade gracefully.
"""

import pytest

from repro.bench.report import format_table


@pytest.mark.benchmark(group="fig14")
def test_fig14_storage_sensitivity(figure, report):
    title, rows, _ = figure("fig14")
    report(format_table(rows, title=title))
    by_interval = {r["interval_ms"]: r for r in rows}
    # Orders-of-magnitude different devices, modest gap at 500ms.
    slow = by_interval[500]
    assert slow["cloud-ssd"] > 0.75 * slow["null"]
    # Cloud SSD thrashes at 25ms; null degrades gracefully.  The gap
    # widens monotonically as checkpoints get more frequent.
    fast = by_interval[25]
    assert fast["cloud-ssd"] < 0.7 * fast["null"]
    assert fast["null"] > 0.55 * slow["null"]
    gaps = [by_interval[i]["cloud-ssd"] / by_interval[i]["null"]
            for i in (500, 100, 25)]
    assert gaps[0] > gaps[1] > gaps[2]
    # More frequent checkpoints never help throughput.
    for name in ("null", "local-ssd", "cloud-ssd"):
        assert by_interval[25][name] <= by_interval[500][name] * 1.05
