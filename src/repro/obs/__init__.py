"""Deterministic observability: sim-time tracing and metrics.

This package sits *below* every protocol layer — it imports nothing
from ``repro.sim``, ``repro.core`` or ``repro.cluster`` — so the
simulation kernel and the cluster components can all record into one
:class:`Tracer` without import cycles.  dprlint rule DPR-O01 enforces
the other direction of that contract: observability hooks never mutate
protocol state.
"""

from repro.obs.tracer import (
    PhaseStats,
    Tracer,
    interpolated_percentile,
    merge_phase_stats,
    run_percentile,
    weighted_sample_merge,
)

__all__ = [
    "PhaseStats",
    "Tracer",
    "interpolated_percentile",
    "merge_phase_stats",
    "run_percentile",
    "weighted_sample_merge",
]
