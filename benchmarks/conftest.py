"""Shared fixtures for the figure benchmarks.

Every benchmark regenerates one table/figure from the paper's §7 and
prints it (run with ``-s`` to see it through pytest's capture).  The
fig10–fig19 sweeps are written once, in ``repro.bench.figures``; a
wrapper takes that catalog's rows at ``scale=1.0`` through ``figure``
and asserts the paper's shapes over them — the same rows
``python -m repro.bench <figure>`` prints and the ``BENCH_<figure>.json``
artifact (EXPERIMENTS.md) is built from.  The wrappers keep no files.
Durations are scaled down from the paper's 30-second runs to
sub-second simulated windows — the simulator is deterministic, so short
windows are stable.
"""

from __future__ import annotations

import functools

import pytest

from repro.bench.figures import run_figure

# One entry: files run in turn, and a sweep's results (traces included)
# are dropped when the next figure's arrive.
_full_scale = functools.lru_cache(maxsize=1)(
    lambda name: run_figure(name, 1.0))


@pytest.fixture
def figure(benchmark):
    """Callable: figure(name) -> (title, rows, results) of the catalog
    sweep at scale 1.0.  A sweep runs once per session: the first test
    to ask carries its wall-clock, a later one times the cache hit."""
    return lambda name: benchmark.pedantic(
        _full_scale, args=(name,), rounds=1, iterations=1)


@pytest.fixture
def report():
    """Callable: report(text) prints a figure table."""

    def emit(text: str) -> None:
        print()
        print(text)

    return emit
