"""Supplementary sweep (§7.2, text): other workload mixes.

The paper states that beyond the 50:50 runs shown, read-modify-write
and read-mostly configurations behave the same way: DPR does not slow
D-FASTER down relative to uncoordinated checkpoints, and the system
stays near in-memory performance despite frequent checkpoints.
"""

import pytest

from repro.bench.harness import run_dfaster_experiment
from repro.bench.report import format_table
from repro.workloads import ycsb

MIXES = [("ycsb-a 50:50", ycsb("a")), ("ycsb-b 95:5", ycsb("b")),
         ("ycsb-c read-only", ycsb("c"))]


@pytest.mark.benchmark(group="supplement")
def test_workload_mixes(benchmark, report):
    def sweep():
        rows = []
        for name, workload in MIXES:
            row = {"workload": name}
            for config, overrides in [
                ("no-chkpt", dict(checkpoints_enabled=False,
                                  dpr_enabled=False)),
                ("no-dpr", dict(dpr_enabled=False)),
                ("dpr", dict()),
            ]:
                row[config] = run_dfaster_experiment(
                    f"mix {name} {config}", duration=0.3, warmup=0.1,
                    workload=workload, **overrides,
                ).throughput_mops
            rows.append(row)
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(format_table(
        rows, title="Supplementary: workload mixes x recoverability "
                    "(Mops/s)"))
    for row in rows:
        # DPR never costs more than ~5% over plain checkpoints.
        assert row["dpr"] > 0.95 * row["no-dpr"]
    by_name = {r["workload"]: r for r in rows}
    # Read-heavy mixes suffer less from checkpointing (fewer RCU
    # re-copies), so their persistence penalty is smaller.
    penalty_a = by_name["ycsb-a 50:50"]["dpr"] / \
        by_name["ycsb-a 50:50"]["no-chkpt"]
    penalty_c = by_name["ycsb-c read-only"]["dpr"] / \
        by_name["ycsb-c read-only"]["no-chkpt"]
    assert penalty_c > penalty_a
