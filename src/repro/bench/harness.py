"""Shared experiment-running helpers for the figure benchmarks."""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cluster.dfaster import DFasterCluster, DFasterConfig
from repro.cluster.dredis import DRedisCluster, DRedisConfig
from repro.cluster.stats import ClusterStats
from repro.obs import Tracer


@dataclass
class ExperimentResult:
    """Throughput and latency summary of one configuration run."""

    label: str
    throughput_mops: float
    commit_throughput_mops: float
    operation_latency: Dict[str, float]
    commit_latency: Dict[str, float]
    stats: ClusterStats = field(repr=False, default=None)
    #: Per-phase trace aggregates (phase name -> summary dict); empty
    #: when the run was untraced.
    phases: Dict[str, Dict[str, float]] = field(default_factory=dict)
    seed: int = 0
    tracer: Optional[Tracer] = field(repr=False, default=None)

    def row(self) -> Dict[str, float]:
        return {
            "label": self.label,
            "tput_mops": round(self.throughput_mops, 2),
            "op_p50_ms": round(self.operation_latency["p50"] * 1e3, 3),
            "op_p95_ms": round(self.operation_latency["p95"] * 1e3, 3),
            "commit_p50_ms": round(self.commit_latency["p50"] * 1e3, 1),
        }


#: Active result collectors (a stack, so nested collection composes).
#: Every ExperimentResult built while a collector is open is appended
#: to it — this is how figure sweeps, whose fig* functions predate the
#: artifact layer and only return selected numbers, still hand every
#: run's full result to the artifact builder.
_collectors: List[List[ExperimentResult]] = []


@contextmanager
def collect_results():
    """Collect every ExperimentResult produced inside the block."""
    bucket: List[ExperimentResult] = []
    _collectors.append(bucket)
    try:
        yield bucket
    finally:
        _collectors.remove(bucket)


#: Active wall-clock probes: each open probe receives one
#: ``(label, perf_counter_seconds)`` entry per finished experiment, so
#: ``--profile`` can attribute real time to sweep points without the
#: figure functions knowing they are being timed.  Wall-clock never
#: feeds results (that would break determinism); it is observability
#: only, which is why repro.bench sits on the dprlint timer allowlist.
_probes: List[List[Tuple[str, float]]] = []


@contextmanager
def wallclock_probe():
    """Collect (label, perf_counter) pairs for experiments in the block."""
    log: List[Tuple[str, float]] = []
    _probes.append(log)
    try:
        yield log
    finally:
        _probes.remove(log)


@contextmanager
def _gc_paused():
    """Disable the cyclic collector for the duration of one experiment.

    A cluster run churns ~200k cyclic objects (generators, deques,
    OrderedDicts) that all die at run end anyway; letting the gen-2
    collector walk them mid-run costs ~15% wall clock and contributes
    nothing — nothing the simulation frees early is cyclic garbage the
    run would otherwise grow without bound.  GC state is observability-
    neutral (no RNG draws, no event scheduling), so pausing it cannot
    perturb results.  One explicit collect() on the way out returns the
    heap to its pre-run footprint before the next experiment starts.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect()


def _summarize(label: str, stats: ClusterStats, warmup: float,
               duration: float, seed: int = 0,
               tracer: Optional[Tracer] = None) -> ExperimentResult:
    result = ExperimentResult(
        label=label,
        throughput_mops=stats.throughput(
            start=warmup, end=duration, duration=duration - warmup) / 1e6,
        commit_throughput_mops=stats.commit_throughput(
            start=warmup, end=duration) / 1e6,
        operation_latency=stats.operation_latency.summary(),
        commit_latency=stats.commit_latency.summary(),
        stats=stats,
        phases=tracer.phase_summary() if tracer is not None else {},
        seed=seed,
        tracer=tracer,
    )
    for bucket in _collectors:
        bucket.append(result)
    if _probes:
        stamp = time.perf_counter()
        for probe in _probes:
            probe.append((label, stamp))
    return result


def _run_experiment(cluster_cls, label: str, duration: float,
                    warmup: float, config, failures: Tuple[float, ...],
                    setup, overrides: Dict) -> ExperimentResult:
    """Build one cluster, run it, summarize it."""
    if config is None and "tracer" not in overrides:
        overrides["tracer"] = Tracer()
    with _gc_paused():
        cluster = cluster_cls(config, **overrides)
        for at_time in failures:
            cluster.schedule_failure(at_time)
        if setup is not None:
            setup(cluster)
        stats = cluster.run(duration, warmup)
    return _summarize(label, stats, warmup, duration,
                      seed=cluster.config.seed,
                      tracer=cluster.config.tracer)


def run_dfaster_experiment(label: str, duration: float = 0.3,
                           warmup: float = 0.1,
                           config: Optional[DFasterConfig] = None,
                           failures: Tuple[float, ...] = (),
                           setup=None,
                           **overrides) -> ExperimentResult:
    """Run one D-FASTER configuration and summarize it.

    ``failures`` are §7.4 world-line bumps at the given times.
    ``setup``, when given, is called with the constructed cluster
    before the run starts — the hook for experiments that need extra
    wiring (e.g. enabling elasticity and scheduling a mid-run
    scale-out) without the harness growing a parameter per scenario.
    """
    return _run_experiment(DFasterCluster, label, duration, warmup, config,
                           failures, setup, overrides)


def run_dredis_experiment(label: str, duration: float = 0.3,
                          warmup: float = 0.1,
                          config: Optional[DRedisConfig] = None,
                          setup=None,
                          **overrides) -> ExperimentResult:
    """Run one D-Redis/Redis configuration and summarize it (same
    ``setup`` hook as :func:`run_dfaster_experiment`)."""
    return _run_experiment(DRedisCluster, label, duration, warmup, config,
                           (), setup, overrides)
