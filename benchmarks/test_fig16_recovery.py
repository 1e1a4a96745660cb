"""Figure 16: impact of recovery on throughput.

The paper's §7.4 methodology, reproduced directly: run 45 seconds of
Zipfian 50:50, simulate worker failures by notifying workers of a new
world-line (forcing a rollback to the latest DPR cut) at the 15-second
mark and twice in short succession at the 30-second mark, and plot
completed / committed / aborted throughput in 250 ms buckets.

Expected shape: recovery completes within a few hundred ms; commit
progress halts briefly and catches up; completion throughput sees only
a minor dip; aborted operations spike at the failure instants; the
nested double failure behaves as two failure-and-recovery sequences
with fewer aborts the second time (few operations executed between).
"""

import pytest

from repro.bench.report import format_table


@pytest.mark.benchmark(group="fig16")
def test_fig16_recovery_timeline(figure, report):
    title, rows, (result,) = figure("fig16")
    report(format_table(rows, title=title))
    stats = result.stats
    completed = dict(stats.completed.series(0.25))
    committed = dict(stats.committed.series(0.25))
    aborted = dict(stats.aborted.series(0.25))

    # Steady-state baselines averaged over 10-14s (commits arrive in
    # bursts at cut publishes, so single buckets are spiky).
    window = [t for t in completed if 10.0 <= t < 14.0]
    steady = sum(completed[t] for t in window) / len(window)
    steady_commit = sum(committed.get(t, 0.0) for t in window) / len(window)
    # Completion throughput sees only a minor dip at the failure.
    assert completed[15.0] > 0.5 * steady
    assert completed[16.0] > 0.9 * steady
    # Commit progress halts during recovery and resumes.
    assert committed[15.0] < 0.9 * steady_commit
    assert committed[17.0] > 0.85 * steady_commit
    # Operations are lost exactly at the failures, nowhere else.
    assert aborted.get(15.0, 0.0) > 0
    assert aborted.get(30.0, 0.0) > 0
    assert aborted.get(10.0, 0.0) == 0
    assert aborted.get(40.0, 0.0) == 0
    # Recovery completes in well under a second (paper: <200 ms).
    # Three recoveries (the nested pair counts as two).
    assert result.phases["recovery"]["count"] == 3
    assert result.phases["recovery"]["max"] < 0.2
