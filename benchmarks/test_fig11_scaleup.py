"""Figure 11: scaling up D-FASTER.

Throughput vs enabled vCPUs per VM (8 VMs) under three configurations:
no checkpoints, uncoordinated checkpoints without DPR, and full DPR.

Expected shape (§7.2): all three scale with core count; checkpointing
costs throughput; DPR adds minimal overhead over plain checkpoints.
"""

import pytest

from repro.bench.report import format_table


def _by_vcpus(rows, workload):
    return {r["#vCPU"]: r for r in rows if r["workload"] == workload}


@pytest.mark.benchmark(group="fig11")
def test_fig11_scaleup_uniform(figure, report):
    by_v = _by_vcpus(figure("fig11")[1], "ycsb-a")
    report(format_table(
        list(by_v.values()),
        title="Figure 11a: scaling up D-FASTER, uniform 50:50 (Mops/s)"))
    # Thread scalability.
    assert by_v[16]["dpr"] > 3.0 * by_v[4]["dpr"]
    for row in by_v.values():
        # Checkpoints cost; DPR over checkpoints is nearly free (<5%).
        assert row["no-chkpt"] > row["no-dpr"]
        assert row["dpr"] > 0.95 * row["no-dpr"]


@pytest.mark.benchmark(group="fig11")
def test_fig11_scaleup_zipfian(figure, report):
    by_v = _by_vcpus(figure("fig11")[1], "ycsb-a-zipf")
    report(format_table(
        list(by_v.values()),
        title="Figure 11b: scaling up D-FASTER, Zipfian(0.99) 50:50 (Mops/s)"))
    # Paper: thread scalability is better under Zipfian.
    assert by_v[16]["dpr"] > 3.2 * by_v[4]["dpr"]
