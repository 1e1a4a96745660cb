"""Experiment statistics: throughput buckets and latency reservoirs."""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs import interpolated_percentile
from repro.sim.rand import make_rng


#: Default seed for reservoir replacement.  Measurement machinery must
#: be reproducible too: an OS-seeded RNG here makes p50/p99 vary run to
#: run once ``count`` exceeds ``capacity``, even though the observation
#: stream itself is deterministic.
_RESERVOIR_SEED = 2021

#: Observations an :meth:`Reservoir.add` past the drawn end of its
#: stream draws ahead, so one stream extension serves many adds.
_DRAW_AHEAD = 1024


class SlotStream:
    """Algorithm R's slot draws for one ``(seed, capacity)``.

    Observation ``k > capacity`` draws ``randrange(k)`` from
    ``Random(seed)`` -- written out as its rejection loop over
    ``getrandbits(k.bit_length())`` (docs/PERFORMANCE.md rule 3) -- and
    lands on that slot if it is below ``capacity``.  The draws depend
    on nothing but ``k``, so every reservoir on the key reads one
    stream, drawn once per process as far as any of them has counted.
    Only the landings are kept, about ``capacity * ln(drawn /
    capacity)`` of them: ``observations[i]`` overwrites ``slots[i]``,
    in increasing observation order.  Both are C unsigned ints (8 B a
    landing); an observation number past ``2**32 - 1`` overflows them.
    """

    def __init__(self, seed: int, capacity: int):
        self.capacity = capacity
        self.rng = make_rng(seed)
        #: The last observation number whose slot has been drawn (the
        #: first to draw is ``capacity + 1``, and never below 1).
        self.drawn = max(capacity, 0)
        self.observations = array("I")
        self.slots = array("I")

    def draw(self, through: int) -> None:
        """Draw the slots of observations ``drawn + 1 ... through``.
        The bit width only changes when the observation number crosses
        a power of two, so it is hoisted per such segment."""
        getrandbits = self.rng.getrandbits
        capacity = self.capacity
        land = self.observations.append
        land_slot = self.slots.append
        start = self.drawn + 1
        end = through + 1
        while start < end:
            bits = start.bit_length()
            stop = min(end, 1 << bits)
            for count in range(start, stop):
                slot = getrandbits(bits)
                while slot >= count:
                    slot = getrandbits(bits)
                if slot < capacity:
                    land(count)
                    land_slot(slot)
            start = stop
        self.drawn = max(self.drawn, through)


#: Every slot stream this process has drawn, by ``(seed, capacity)``.
_STREAMS: Dict[Tuple[int, int], SlotStream] = {}


class Reservoir:
    """Fixed-size uniform reservoir sample of latency observations.

    ``rng`` is an int seed (default :data:`_RESERVOIR_SEED`): the
    reservoir reads the process's one :class:`SlotStream` of its seed
    and capacity, so its samples are those of Algorithm R over a private
    ``Random(seed)`` drawing one ``randrange(count)`` per observation
    past the fill boundary.
    """

    def __init__(self, capacity: int = 20000, rng: Optional[int] = None):
        seed = _RESERVOIR_SEED if rng is None else rng
        if not isinstance(seed, int):
            raise TypeError(
                f"a reservoir is seeded by an int, not {type(seed).__name__}")
        self.capacity = capacity
        key = (seed, capacity)
        stream = _STREAMS.get(key)
        if stream is None:
            stream = _STREAMS[key] = SlotStream(seed, capacity)
        self._stream = stream
        #: Index of the next landing in the stream: every one before it
        #: belongs to an observation already counted.
        self._cursor = 0
        #: Sampled latencies as C doubles (8 B each, no float objects).
        self._samples = array("d")
        self.count = 0

    def add(self, value: float) -> None:
        self.count = count = self.count + 1
        samples = self._samples
        if len(samples) < self.capacity:
            samples.append(value)
            return
        stream = self._stream
        if count > stream.drawn:
            stream.draw(count + _DRAW_AHEAD)
        cursor = self._cursor
        observations = stream.observations
        if cursor < len(observations) and observations[cursor] == count:
            samples[stream.slots[cursor]] = value
            self._cursor = cursor + 1

    def add_run(self, value: float, n: int) -> None:
        """``n`` observations of ``value``: the same samples and
        ``count`` as ``n`` calls of :meth:`add` -- the run's landings
        are found by bisecting the stream.  A negative ``n`` raises
        ``ValueError``."""
        if n < 0:
            raise ValueError(f"a run of {n} observations")
        samples = self._samples
        fill = min(n, self.capacity - len(samples))
        # One C-level repeat of a one-element array: extending by
        # ``[value] * fill`` would convert every element back to a
        # double.
        samples += array("d", (value,)) * fill
        self.count = end = self.count + n
        stream = self._stream
        if end > stream.drawn:
            stream.draw(end)
        cursor = self._cursor
        self._cursor = stop = bisect_right(stream.observations, end, cursor)
        for slot in stream.slots[cursor:stop]:
            samples[slot] = value

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

    Keep measurement windows aligned to bucket boundaries — the
    :data:`BUCKET_WIDTH` of 50 ms makes 0.1/0.4/1.0-second windows exact.
    """

    BUCKET_WIDTH = 0.05

    def __init__(self) -> None:
        self._buckets: Dict[int, float] = {}

    def add(self, time: float, count: float = 1.0) -> None:
        bucket = int(time / self.BUCKET_WIDTH)
        self._buckets[bucket] = self._buckets.get(bucket, 0.0) + count

    def series(self, width: Optional[float] = None) -> List[Tuple[float, float]]:
        """(bucket start time, ops/sec within bucket) pairs, sorted.

        ``width`` resamples into coarser buckets — e.g. the Figure 16
        timeline uses 250 ms.  It must be a whole multiple of
        :data:`BUCKET_WIDTH`; any other width raises ``ValueError``
        rather than silently answering in a different width.
        """
        native = self.BUCKET_WIDTH
        if width is None or width == native:
            return [
                (bucket * native, count / native)
                for bucket, count in sorted(self._buckets.items())
            ]
        factor = round(width / native)
        if factor < 1 or not math.isclose(factor * native, width):
            raise ValueError(
                f"bucket width {width!r} is not a whole multiple of the "
                f"native {native!r} s")
        coarse: Dict[int, float] = {}
        for bucket, count in self._buckets.items():
            coarse[bucket // factor] = coarse.get(bucket // factor, 0.0) + count
        actual = factor * native
        return [(b * actual, c / actual) for b, c in sorted(coarse.items())]

    def total(self, start: float = 0.0, end: Optional[float] = None) -> float:
        total = 0.0
        for bucket, count in self._buckets.items():
            time = bucket * self.BUCKET_WIDTH
            if time < start:
                continue
            if end is not None and time >= end:
                continue
            total += count
        return total


@dataclass
class ClusterStats:
    """Everything the benchmark harness reads after a run."""

    completed: TimeSeries = field(default_factory=TimeSeries, init=False)
    committed: TimeSeries = field(default_factory=TimeSeries, init=False)
    aborted: TimeSeries = field(default_factory=TimeSeries, init=False)
    operation_latency: Reservoir = field(default_factory=Reservoir,
                                         init=False)
    commit_latency: Reservoir = field(default_factory=Reservoir, init=False)
    #: Warmup cutoff applied by throughput().
    warmup: float = field(default=0.0, init=False)

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
            last = series[-1][0] + self.completed.BUCKET_WIDTH
            duration = max(self.completed.BUCKET_WIDTH,
                           (last if end is None else end) - start)
        return total / duration

    def commit_throughput(self, start: Optional[float] = None,
                          end: Optional[float] = None) -> float:
        start = self.warmup if start is None else start
        series = self.committed.series()
        if not series:
            return 0.0
        last = series[-1][0] + self.committed.BUCKET_WIDTH
        duration = max(self.committed.BUCKET_WIDTH,
                       (last if end is None else end) - start)
        return self.committed.total(start, end) / duration
