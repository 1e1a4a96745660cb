"""Deterministic observability: sim-time tracing and metrics.

This package sits *below* every protocol layer — it imports nothing
from ``repro.sim``, ``repro.core`` or ``repro.cluster`` — so the
simulation kernel and the cluster components can all record into one
:class:`Tracer` without import cycles.  The other direction of that
contract is that observability hooks never mutate protocol state.
``tests/test_obs.py`` checks both at run time: ``TestObsLayering``
imports this package alone in a fresh interpreter, and
``TestTracingDoesNotPerturbTheProtocol`` compares a faulted run's
whole fingerprint with the tracer on and off.
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
