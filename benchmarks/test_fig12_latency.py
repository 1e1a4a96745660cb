"""Figure 12: latency distributions of D-FASTER.

Operation-completion and operation-commit latency distributions at
batch sizes 1024 and 64 (w = 16 b, Zipfian 50:50, 100 ms checkpoints).

Expected shape (§7.2): commits land around one checkpoint interval
plus flush and DPR propagation (~150 ms); completions take a few
milliseconds at b=1024 (queueing under the deep window) and around a
millisecond at b=64, with faster, more stable commits at the reduced
load.
"""

import pytest

from repro.bench.report import format_latency_histogram, format_table


@pytest.mark.benchmark(group="fig12")
def test_fig12_latency_distributions(figure, report):
    title, rows, results = figure("fig12")
    by_config = dict(zip((row["config"] for row in rows), results))
    big, small = by_config["b=1024"], by_config["b=64"]
    text = format_table(rows, title=title)
    samples_big = [v * 1e3 for v in
                   big.stats.operation_latency._samples]
    samples_small = [v * 1e3 for v in
                     small.stats.operation_latency._samples]
    text += "\n\n" + format_latency_histogram(
        samples_big, "Figure 12c: operation latency, b=1024")
    text += "\n\n" + format_latency_histogram(
        samples_small, "Figure 12d: operation latency, b=64")
    text += "\n\n" + format_latency_histogram(
        [v * 1e3 for v in big.stats.commit_latency._samples],
        "Figure 12a: commit latency, b=1024")
    text += "\n\n" + format_latency_histogram(
        [v * 1e3 for v in small.stats.commit_latency._samples],
        "Figure 12b: commit latency, b=64")
    report(text)

    # Commits wait for the next checkpoint (~half an interval on
    # average) plus flush and finder propagation.
    assert 0.03 < big.commit_latency["p50"] < 0.3
    assert big.commit_latency["p95"] > 0.1  # tail spans a full interval
    # Completion is orders of magnitude faster than commit.
    assert big.operation_latency["p50"] < big.commit_latency["p50"] / 5
    # Smaller batches reduce completion latency (sub-ms territory).
    assert small.operation_latency["p50"] < big.operation_latency["p50"]
    assert small.operation_latency["p50"] < 2e-3
