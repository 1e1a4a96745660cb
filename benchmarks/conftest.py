"""Shared fixtures for the figure benchmarks.

Every benchmark regenerates one table/figure from the paper's §7 and
prints it (run with ``-s`` to see it through pytest's capture).  The
results *format* is the ``BENCH_<figure>.json`` artifact
(``python -m repro.bench <figure> --json-dir DIR``, EXPERIMENTS.md);
these wrappers assert the shapes and print a readable table, they keep
no files.  Durations are scaled down from the paper's 30-second runs to
sub-second simulated windows — the simulator is deterministic, so short
windows are stable.
"""

from __future__ import annotations

import pytest


@pytest.fixture
def report():
    """Callable: report(name, text) prints a figure table."""

    def emit(name: str, text: str) -> None:
        print()
        print(text)

    return emit
