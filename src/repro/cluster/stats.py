"""Experiment statistics: throughput buckets and latency reservoirs."""

from __future__ import annotations

import random
from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import interpolated_percentile
from repro.sim.rand import make_rng


#: Default seed for reservoir replacement.  Measurement machinery must
#: be reproducible too: an OS-seeded RNG here makes p50/p99 vary run to
#: run once ``count`` exceeds ``capacity``, even though the observation
#: stream itself is deterministic.
_RESERVOIR_SEED = 2021


class Reservoir:
    """Fixed-size uniform reservoir sample of latency observations."""

    def __init__(self, capacity: int = 20000, rng=None):
        self.capacity = capacity
        self._rng = make_rng(_RESERVOIR_SEED if rng is None else rng)
        self._samples: List[float] = []
        self.count = 0

    def add(self, value: float) -> None:
        self.count = count = self.count + 1
        samples = self._samples
        if len(samples) < self.capacity:
            samples.append(value)
            return
        # Algorithm R's slot is uniform below ``count``: the stdlib's
        # bounded draw -- reject ``getrandbits(count.bit_length())``
        # until it lands below ``count`` -- spelled out, so the same
        # Mersenne-Twister words are consumed without two Python frames
        # per observation (docs/PERFORMANCE.md rule 3).
        getrandbits = self._rng.getrandbits
        bits = count.bit_length()
        slot = getrandbits(bits)
        while slot >= count:
            slot = getrandbits(bits)
        if slot < self.capacity:
            samples[slot] = value

    def add_run(self, value: float, n: int) -> None:
        """``n`` observations of ``value``: the same samples, ``count``
        and RNG draws, in the same order, as ``n`` calls of :meth:`add`
        (one bounded draw per observation past the fill boundary is
        what pins the reservoir's bytes).  The draw's bit width only
        changes when ``count`` crosses a power of two, so it is hoisted
        per such segment."""
        samples = self._samples
        capacity = self.capacity
        fill = max(0, min(n, capacity - len(samples)))
        samples.extend([value] * fill)
        getrandbits = self._rng.getrandbits
        start = self.count + fill + 1
        end = self.count + n + 1
        while start < end:
            bits = start.bit_length()
            stop = min(end, 1 << bits)
            for count in range(start, stop):
                slot = getrandbits(bits)
                while slot >= count:
                    slot = getrandbits(bits)
                if slot < capacity:
                    samples[slot] = value
            start = stop
        self.count += n

    def percentile(self, q: float) -> float:
        """q in [0, 100], linearly interpolated between ranks.

        Boundary values are exact: ``percentile(0)`` is the smallest
        sample and ``percentile(100)`` the largest (the old truncating
        index could step past a boundary rank and misreport both).
        """
        return interpolated_percentile(sorted(self._samples), q)

    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    def summary(self) -> Dict[str, float]:
        ordered = sorted(self._samples)
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": interpolated_percentile(ordered, 50),
            "p95": interpolated_percentile(ordered, 95),
            "p99": interpolated_percentile(ordered, 99),
            "p999": interpolated_percentile(ordered, 99.9),
        }


class TimeSeries:
    """Ops counted into fixed-width time buckets (Figure 16 timelines).

    Keep measurement windows aligned to bucket boundaries — the default
    50 ms buckets make 0.1/0.4/1.0-second windows exact.
    """

    def __init__(self, bucket_width: float = 0.05):
        self.bucket_width = bucket_width
        self._buckets: Dict[int, float] = {}

    def add(self, time: float, count: float = 1.0) -> None:
        bucket = int(time / self.bucket_width)
        self._buckets[bucket] = self._buckets.get(bucket, 0.0) + count

    def series(self, width: Optional[float] = None) -> List[Tuple[float, float]]:
        """(bucket start time, ops/sec within bucket) pairs, sorted.

        ``width`` resamples into coarser buckets (must be a multiple of
        the native width) — e.g. the Figure 16 timeline uses 250 ms.
        """
        if width is None or width == self.bucket_width:
            return [
                (bucket * self.bucket_width, count / self.bucket_width)
                for bucket, count in sorted(self._buckets.items())
            ]
        factor = max(1, round(width / self.bucket_width))
        coarse: Dict[int, float] = {}
        for bucket, count in self._buckets.items():
            coarse[bucket // factor] = coarse.get(bucket // factor, 0.0) + count
        actual = factor * self.bucket_width
        return [(b * actual, c / actual) for b, c in sorted(coarse.items())]

    def total(self, start: float = 0.0, end: Optional[float] = None) -> float:
        total = 0.0
        for bucket, count in self._buckets.items():
            time = bucket * self.bucket_width
            if time < start:
                continue
            if end is not None and time >= end:
                continue
            total += count
        return total


@dataclass
class ClusterStats:
    """Everything the benchmark harness reads after a run."""

    completed: TimeSeries = field(default_factory=TimeSeries)
    committed: TimeSeries = field(default_factory=TimeSeries)
    aborted: TimeSeries = field(default_factory=TimeSeries)
    operation_latency: Reservoir = field(default_factory=Reservoir)
    commit_latency: Reservoir = field(default_factory=Reservoir)
    #: Warmup cutoff applied by throughput().
    warmup: float = 0.0

    def throughput(self, start: Optional[float] = None,
                   end: Optional[float] = None,
                   duration: Optional[float] = None) -> float:
        """Completed ops/sec over the measurement window."""
        start = self.warmup if start is None else start
        total = self.completed.total(start, end)
        if duration is None:
            series = self.completed.series()
            if not series:
                return 0.0
            last = series[-1][0] + self.completed.bucket_width
            duration = max(self.completed.bucket_width,
                           (last if end is None else end) - start)
        return total / duration

    def commit_throughput(self, start: Optional[float] = None,
                          end: Optional[float] = None) -> float:
        start = self.warmup if start is None else start
        series = self.committed.series()
        if not series:
            return 0.0
        last = series[-1][0] + self.committed.bucket_width
        duration = max(self.committed.bucket_width,
                       (last if end is None else end) - start)
        return self.committed.total(start, end) / duration
