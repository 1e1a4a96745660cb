"""Figure 10: scaling out D-FASTER.

Throughput vs cluster size for uniform and Zipfian YCSB-A 50:50 under
four durability configurations: no checkpoints (pure cache), and DPR
checkpoints every 100 ms on null / local SSD / cloud SSD backends.

Expected shape (paper §7.2): near-linear scale-out for every backend;
checkpointed configurations roughly 40% below no-checkpoints; cloud
SSD slightly below local SSD; Zipfian ~20% above uniform.
"""

import pytest

from repro.bench.report import format_table


def _of(rows, workload):
    return [row for row in rows if row["workload"] == workload]


@pytest.mark.benchmark(group="fig10")
def test_fig10_scaleout_uniform(figure, report):
    rows = _of(figure("fig10")[1], "ycsb-a")
    report(format_table(
        rows, title="Figure 10a: scaling out D-FASTER, uniform 50:50 (Mops/s)"))
    by_n = {r["#VM"]: r for r in rows}
    # Near-linear scale-out.
    assert by_n[8]["local-ssd"] > 3.0 * by_n[2]["local-ssd"]
    # Persistence costs throughput; cloud is slowest backend.
    for row in rows:
        assert row["no-chkpt"] > row["null"] >= row["local-ssd"] > row["cloud-ssd"]


@pytest.mark.benchmark(group="fig10")
def test_fig10_scaleout_zipfian(figure, report):
    _, rows, _ = figure("fig10")
    report(format_table(
        _of(rows, "ycsb-a-zipf"),
        title="Figure 10b: scaling out D-FASTER, Zipfian(0.99) 50:50 (Mops/s)"))
    # Zipfian beats uniform: hot keys are re-copied quickly and then
    # updated in place (§7.2).
    local_ssd = {(r["workload"], r["#VM"]): r["local-ssd"] for r in rows}
    assert local_ssd["ycsb-a-zipf", 8] > 1.1 * local_ssd["ycsb-a", 8]
