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


#: Active result collectors (a stack, so nested collection composes).
#: Every ExperimentResult built while a collector is open is appended
#: to it — this is how figure sweeps, whose fig* functions predate the
#: artifact layer and only return selected numbers, still hand every
#: run's full result to the artifact builder.
_collectors: List[List[ExperimentResult]] = []


def _unregister(stack: list, entry: list) -> None:
    """Drop ``entry`` from ``stack`` by identity, innermost first.

    ``list.remove`` compares with ``==``, and an inner collector opened
    right after an outer one holds the same results: it would take the
    outer entry and leave the closed inner one collecting.
    """
    for index in reversed(range(len(stack))):
        if stack[index] is entry:
            del stack[index]
            return


@contextmanager
def collect_results():
    """Collect every ExperimentResult produced inside the block."""
    bucket: List[ExperimentResult] = []
    _collectors.append(bucket)
    try:
        yield bucket
    finally:
        _unregister(_collectors, bucket)


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
        _unregister(_probes, log)


@contextmanager
def _gc_paused():
    """Disable the cyclic collector for the duration of one experiment,
    and collect, on either side of it, only what an experiment allocates.

    A cluster run churns ~200k cyclic objects (generators, deques,
    OrderedDicts) that all die at run end anyway; letting the collector
    walk them mid-run costs ~15% wall clock and contributes nothing —
    nothing the simulation frees early is cyclic garbage the run would
    otherwise grow without bound.  GC state is observability-neutral
    (no RNG draws, no event scheduling), so pausing it cannot perturb
    results.

    The collections are scoped by generation.  Invariant: inside the
    block the two young generations hold nothing but this experiment.
    On the way in ``collect(1)`` empties them — whatever the caller
    allocated since the previous experiment is freed or promoted to the
    oldest generation; the collector is then off, so everything the run
    allocates stays in generation 0, and on the way out ``collect(0)``
    *is* a collection of this experiment: the cluster is freed there,
    provided no frame still holds it (which is why :func:`_simulate`
    returns before this block exits), and what survives — the result —
    moves to generation 1.  A caller that kept the cluster (the driver
    returned by ``attach_open_loop`` holds ``env``, hence all of it)
    sees it survive into generation 1 too, and once dropped it is
    freed by the next experiment's way-in ``collect(1)``, before that
    experiment builds its own.  Results that outlive both age into the
    oldest generation, which is left to the interpreter's amortised
    policy: a full ``collect()`` per experiment re-walks every retained
    result of a sweep to free nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    gc.collect(1)
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.collect(0)


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


def _simulate(cluster_cls, duration: float, warmup: float, config,
              failures: Tuple[float, ...], setup, overrides: Dict):
    """Build one cluster and run it; returns ``(stats, config)`` and
    not the cluster, so no frame holds it when :func:`_gc_paused`
    collects on the way out."""
    cluster = cluster_cls(config, **overrides)
    for at_time in failures:
        cluster.schedule_failure(at_time)
    if setup is not None:
        setup(cluster)
    return cluster.run(duration, warmup), cluster.config


def _run_experiment(cluster_cls, label: str, duration: float,
                    warmup: float, config, failures: Tuple[float, ...],
                    setup, overrides: Dict) -> ExperimentResult:
    """Build one cluster, run it, summarize it."""
    if config is None and "tracer" not in overrides:
        overrides["tracer"] = Tracer()
    with _gc_paused():
        stats, config = _simulate(cluster_cls, duration, warmup, config,
                                  failures, setup, overrides)
    return _summarize(label, stats, warmup, duration,
                      seed=config.seed, tracer=config.tracer)


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
