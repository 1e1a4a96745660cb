"""A deterministic sim-time tracer for the simulated testbed.

Every record is keyed on *simulated* time (the caller passes ``env.now``
explicitly — the tracer never reads a clock of its own), and the only
randomness is a privately seeded :class:`random.Random` used for
reservoir down-sampling of phase durations.  Two runs of the same
seeded experiment therefore produce byte-identical event streams, under
any ``PYTHONHASHSEED``, which is what lets traces participate in the
repo's determinism fingerprints instead of undermining them.

The tracer is strictly an *observer*: hooks accept values, record them,
and return ``None``.  They never draw from simulation RNG streams,
never schedule events, and never touch the objects that called them.
``tests/test_obs.py`` checks that contract over what runs: a faulted
run with a promotion and a recovery has the same whole-run fingerprint
with the tracer on and off.  Components guard each hook with ``if
tracer is not None`` so a run without tracing pays one pointer test
per hook and nothing else.

Three record families:

- **counters** — monotonic sums (``kernel.dispatched``, ``faults.dropped``);
- **gauges** — last-written values mirrored from protocol-owned
  statistics (``finder.graph_writes``), plus per-queue depth
  high-watermarks;
- **phases** — latency spans (``worker.persist_lag``, ``dpr.cut_lag``,
  ``recovery``) aggregated into count/total/min/max plus a seeded
  reservoir for percentiles.  Spans are either recorded whole
  (:meth:`Tracer.span`) or opened/closed by key
  (:meth:`Tracer.begin_span` / :meth:`Tracer.end_span`) when the start
  and end live in different components, e.g. seal at the checkpoint
  loop, persist in the flusher.

A bounded event stream (``MAX_EVENTS``, overflow counted in
``events_dropped``) keeps long benchmark runs from hoarding memory
while aggregates stay exact.  It is stored by column — a time, a value
and the code of one of a few dozen ``(kind, name, labels)`` shapes per
event (docs/OBSERVABILITY.md, "Storage layout").
"""

from __future__ import annotations

import json
import random
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from itertools import accumulate
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Fixed seed for reservoir down-sampling.  Like the stats reservoirs,
#: measurement machinery must itself be reproducible.
_TRACER_SEED = 2021

#: Default per-phase reservoir capacity.
_SAMPLE_CAPACITY = 20_000

#: Elements per block of a stratum in :func:`weighted_sample_merge`.  A
#: pick pops from one block, so its memmove is bounded by this rather
#: than by the reservoir's capacity, and a walk over the blocks to find
#: the rank stays a handful of steps.
_MERGE_BLOCK = 4096


def _interpolate(at: Callable[[int], float], n: int, q: float) -> float:
    """The percentile arithmetic of :func:`interpolated_percentile` over
    ``n`` ordered values that ``at(index)`` reads."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q!r} is outside [0, 100]")
    if n == 0:
        return 0.0
    if n == 1:
        return at(0)
    rank = (q / 100.0) * (n - 1)
    lower = int(rank)
    upper = min(lower + 1, n - 1)
    fraction = rank - lower
    low = at(lower)
    return low + (at(upper) - low) * fraction


def interpolated_percentile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an already-sorted list.

    Exact at boundary ranks: ``q=0`` is the minimum, ``q=100`` the
    maximum, and any ``q`` landing on an integral rank returns that
    sample unchanged.  A ``q`` outside [0, 100] raises ``ValueError``.
    """
    return _interpolate(ordered.__getitem__, len(ordered), q)


def run_percentile(ordered_runs: Sequence[Tuple[float, int]],
                   q: float) -> float:
    """:func:`interpolated_percentile` of the sorted list that repeats
    each ``(value, count)`` run ``count`` times, read by cumulative
    rank instead of expanded."""
    ends = list(accumulate(count for _, count in ordered_runs))
    return _interpolate(
        lambda index: ordered_runs[bisect_right(ends, index)][0],
        ends[-1] if ends else 0, q)


class PhaseStats:
    """Aggregate of one phase's durations: moments + sampled quantiles."""

    __slots__ = ("count", "total", "minimum", "maximum", "capacity",
                 "samples")

    def __init__(self, capacity: int = _SAMPLE_CAPACITY):
        self.count = 0
        self.total = 0.0
        self.minimum = 0.0
        self.maximum = 0.0
        self.capacity = capacity
        #: Sampled durations as C doubles (8 B each, no float objects).
        self.samples = array("d")

    def add(self, value: float, rng: random.Random) -> None:
        if self.count == 0:
            self.minimum = self.maximum = value
        else:
            if value < self.minimum:
                self.minimum = value
            if value > self.maximum:
                self.maximum = value
        self.count += 1
        self.total += value
        if len(self.samples) < self.capacity:
            self.samples.append(value)
        else:
            # The stdlib's bounded draw spelled out (same words, same
            # slot, no frames): see ``cluster.stats.SlotStream.draw``.
            count = self.count
            getrandbits = rng.getrandbits
            bits = count.bit_length()
            slot = getrandbits(bits)
            while slot >= count:
                slot = getrandbits(bits)
            if slot < self.capacity:
                self.samples[slot] = value

    def percentiles(self, *qs: float) -> List[float]:
        """Any number of quantiles from one sort of the reservoir."""
        ordered = sorted(self.samples)
        return [interpolated_percentile(ordered, q) for q in qs]

    def percentile(self, q: float) -> float:
        return self.percentiles(q)[0]

    def summary(self) -> Dict[str, float]:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        p50, p95, p99 = self.percentiles(50, 95, 99)
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.total / self.count,
            "min": self.minimum,
            "max": self.maximum,
            "p50": p50,
            "p95": p95,
            "p99": p99,
        }

    def merge(self, other: "PhaseStats", rng: random.Random) -> None:
        """Fold ``other`` in, weighting samples by the observation counts
        they represent (no re-sampling bias toward the smaller stream)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.minimum, self.maximum = other.minimum, other.maximum
        else:
            self.minimum = min(self.minimum, other.minimum)
            self.maximum = max(self.maximum, other.maximum)
        merged_count = self.count + other.count
        if len(self.samples) + len(other.samples) <= self.capacity:
            self.samples += other.samples
        else:
            self.samples = array("d", weighted_sample_merge(
                self.samples, self.count, other.samples, other.count,
                self.capacity, rng))
        self.count = merged_count
        self.total += other.total


def _blocks(samples: Sequence[float]) -> List[List[float]]:
    """A stratum copied into lists of at most :data:`_MERGE_BLOCK`."""
    return [list(samples[start:start + _MERGE_BLOCK])
            for start in range(0, len(samples), _MERGE_BLOCK)]


def weighted_sample_merge(mine: Sequence[float], mine_count: int,
                          theirs: Sequence[float], theirs_count: int,
                          capacity: int, rng: random.Random) -> List[float]:
    """Draw ``capacity`` samples from two reservoirs without replacement,
    each stratum weighted by the number of observations it represents.

    The loop body is hand-hoisted (bound methods, counted lengths): a
    figure-level merge makes ``capacity`` picks per tracer pair, which
    made this the hottest post-simulation function in profiles.  The RNG
    call sequence and pop-by-rank semantics are load-bearing — reordering
    or batching them would change merged percentiles byte-for-byte.  The
    rank within the chosen stratum is the stdlib's bounded draw spelled
    out — reject ``getrandbits(n.bit_length())`` until it lands below
    ``n`` — which consumes the same words without its two frames.  The
    rank-th remaining sample is popped from a copy of its stratum held
    in :data:`_MERGE_BLOCK`-sized blocks, so the arguments are left as
    they were and no pick moves more than one block's tail.
    """
    n_mine = len(mine)
    n_theirs = len(theirs)
    weight_mine = mine_count / n_mine if n_mine else 0.0
    weight_theirs = theirs_count / n_theirs if n_theirs else 0.0
    blocks_mine = _blocks(mine)
    blocks_theirs = _blocks(theirs)
    picked: List[float] = []
    append = picked.append
    rand = rng.random
    getrandbits = rng.getrandbits
    for _ in range(capacity):
        total_mine = n_mine * weight_mine
        remaining = total_mine + n_theirs * weight_theirs
        if remaining <= 0.0:
            break
        if rand() * remaining < total_mine:
            blocks, n = blocks_mine, n_mine
            n_mine -= 1
        else:
            blocks, n = blocks_theirs, n_theirs
            n_theirs -= 1
        bits = n.bit_length()
        rank = getrandbits(bits)
        while rank >= n:
            if not n:
                # Only non-finite weights choose an exhausted stratum;
                # without this the loop spins on getrandbits(0) == 0.
                raise ValueError("weighted merge chose an empty stratum")
            rank = getrandbits(bits)
        for block in blocks:
            size = len(block)
            if rank < size:
                append(block.pop(rank))
                break
            rank -= size
    return picked


class EventView(Sequence):
    """A tracer's event stream as ``(t, kind, name, value, labels)`` rows.

    A live, read-only window on the tracer's columns: ``len`` is O(1);
    indexing, slicing and iteration build each 5-tuple on access and
    keep none.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer"):
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._codes)

    def __getitem__(self, index):
        tracer = self._tracer
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(len(self)))]
        index = range(len(self))[index]  # negatives, bounds, type
        t, value = (tracer._as_written.get(index)
                    or (tracer._times[index], tracer._values[index]))
        kind, name, labels = tracer._shapes[tracer._codes[index]]
        return (t, kind, name, value, labels)


class Tracer:
    """Deterministic structured trace + metric sink for one experiment."""

    #: Cap on stored events; aggregation is unaffected by overflow.
    MAX_EVENTS = 200_000
    #: Per-phase reservoir capacity.
    SAMPLE_CAPACITY = _SAMPLE_CAPACITY

    def __init__(self, seed: int = _TRACER_SEED):
        self._rng = random.Random(seed)
        # The bounded event stream by column: event i is row _codes[i]
        # of _shapes, the distinct (kind, name, sorted labels) triples,
        # at (_times[i], _values[i]) — or _as_written[i] when either is
        # not exactly a float, which a C double would not give back.
        self._codes = array("I")
        self._shapes: List[Tuple[str, str, Tuple[Tuple[str, Any], ...]]] = []
        self._shape_codes: Dict[Tuple[Any, ...], int] = {}
        self._times = array("d")
        self._values = array("d")
        self._as_written: Dict[int, Tuple[Any, Any]] = {}
        self.events_dropped = 0
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        #: Per-queue depth high-watermarks.
        self.queue_high_watermarks: Dict[str, int] = {}
        #: Per-queue *current* depths — decays back to 0 as consumers
        #: drain, unlike the watermark (which remembers the peak).
        self.queue_depths: Dict[str, int] = {}
        self.spans_cancelled = 0
        self.unmatched_span_ends = 0
        self._phases: Dict[str, PhaseStats] = {}
        self._open: Dict[Tuple[str, Any], float] = {}

    # -- hooks (all return None; tests/test_obs.py checks purity) --------

    def counter(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to a monotonic counter."""
        self.counters[name] = self.counters.get(name, 0.0) + value

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of an externally-owned statistic."""
        self.gauges[name] = value

    def queue_depth(self, name: str, depth: int) -> None:
        """Track the current depth and high-watermark of a named queue.

        Callers record on *both* enqueue and dequeue, so the gauge
        decays back to 0 as the queue drains; the watermark keeps the
        peak.  No event is appended, so trace fingerprints are
        unaffected by how often a queue is sampled.
        """
        self.queue_depths[name] = depth
        if depth > self.queue_high_watermarks.get(name, -1):
            self.queue_high_watermarks[name] = depth

    def event(self, t: float, name: str, value: Any = None,
              **labels: Any) -> None:
        """Record a point event at sim-time ``t``."""
        self._record(t, "event", name, value, labels)

    def span(self, name: str, t: float, duration: float,
             **labels: Any) -> None:
        """Record one completed phase span ending at sim-time ``t``."""
        phase = self._phases.get(name)
        if phase is None:
            phase = self._phases[name] = PhaseStats(self.SAMPLE_CAPACITY)
        # ``phase.add(duration, self._rng)`` written out, then the
        # common cases of ``_record`` (a full log, a known shape): one
        # frame per span, not three.
        count = phase.count
        if count == 0:
            phase.minimum = phase.maximum = duration
        else:
            if duration < phase.minimum:
                phase.minimum = duration
            if duration > phase.maximum:
                phase.maximum = duration
        phase.count = count = count + 1
        phase.total += duration
        samples = phase.samples
        if len(samples) < phase.capacity:
            samples.append(duration)
        else:
            getrandbits = self._rng.getrandbits
            bits = count.bit_length()
            slot = getrandbits(bits)
            while slot >= count:
                slot = getrandbits(bits)
            if slot < phase.capacity:
                samples[slot] = duration
        codes = self._codes
        if len(codes) >= self.MAX_EVENTS:
            self.events_dropped += 1
            return
        if type(t) is float and type(duration) is float:
            for label in labels.values():
                if type(label) is not str and type(label) is not int:
                    break
            else:
                code = self._shape_codes.get(("span", name, *labels.items()))
                if code is not None:
                    codes.append(code)
                    self._times.append(t)
                    self._values.append(duration)
                    return
        self._record(t, "span", name, duration, labels)

    def begin_span(self, name: str, key: Any, t: float) -> None:
        """Open a keyed span; a later :meth:`end_span` closes it."""
        self._open[(name, key)] = t

    def end_span(self, name: str, key: Any, t: float,
                 **labels: Any) -> None:
        """Close the keyed span and record its duration."""
        start = self._open.pop((name, key), None)
        if start is None:
            self.unmatched_span_ends += 1
            return
        self.span(name, t, t - start, **labels)

    def cancel_span(self, name: str, key: Any) -> None:
        """Discard an open span whose phase will never complete (e.g.
        a flush dropped by rollback)."""
        if self._open.pop((name, key), None) is not None:
            self.spans_cancelled += 1

    def end_spans(self, name: str, t: float,
                  select: Callable[[Any], bool], **labels: Any) -> None:
        """Close every open ``name`` span whose key satisfies ``select``.

        Used when one observation retires many spans at once — a cut
        broadcast covers every persisted version at or below it.
        """
        matched = [key for phase, key in self._open
                   if phase == name and select(key)]
        for key in matched:
            self.end_span(name, key, t, **labels)

    # -- reading -------------------------------------------------------

    @property
    def events(self) -> EventView:
        """The bounded event stream, oldest first (a live view)."""
        return EventView(self)

    def open_span_count(self) -> int:
        return len(self._open)

    def phases(self) -> Dict[str, PhaseStats]:
        """The raw per-phase aggregates (read-only by convention)."""
        return self._phases

    def phase_summary(self) -> Dict[str, Dict[str, float]]:
        return {name: self._phases[name].summary()
                for name in sorted(self._phases)}

    def summary(self) -> Dict[str, Any]:
        """One JSON-ready dict of every aggregate the tracer holds."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "queue_high_watermarks": {
                k: self.queue_high_watermarks[k]
                for k in sorted(self.queue_high_watermarks)},
            "queue_depths": {
                k: self.queue_depths[k] for k in sorted(self.queue_depths)},
            "phases": self.phase_summary(),
            "events_recorded": len(self._codes),
            "events_dropped": self.events_dropped,
            "spans_cancelled": self.spans_cancelled,
            "unmatched_span_ends": self.unmatched_span_ends,
            "open_spans": self.open_span_count(),
        }

    def serialize(self) -> str:
        """The event stream as canonical JSON lines.

        Byte-identical across runs of the same seeded experiment; the
        determinism suite hashes this.
        """
        encode = json.JSONEncoder(sort_keys=True, default=str).encode
        # Keys sort as kind, labels, name, t, value: the first three
        # are the shape's, encoded once per shape instead of per event.
        heads = [encode({"kind": kind, "labels": dict(labels),
                         "name": name})[:-1]
                 for kind, name, labels in self._shapes]
        as_written = self._as_written
        lines = []
        for index, (code, t, value) in enumerate(
                zip(self._codes, self._times, self._values)):
            if index in as_written:
                t, value = as_written[index]
            lines.append(f'{heads[code]}, "t": {encode(t)}, '
                         f'"value": {encode(value)}}}')
        return "\n".join(lines)

    # -- internals -----------------------------------------------------

    def _record(self, t: float, kind: str, name: str, value: Any,
                labels: Dict[str, Any]) -> None:
        codes = self._codes
        if len(codes) >= self.MAX_EVENTS:
            self.events_dropped += 1
            return
        # A shape row is shared only through ``str`` / ``int`` label
        # values, where ``==`` means the same JSON; ``1 == 1.0 == True``
        # and ``0.0 == -0.0`` do not, so other types get a row each.
        shared = {str, int}.issuperset(map(type, labels.values()))
        key = (kind, name, *labels.items())
        code = self._shape_codes.get(key) if shared else None
        if code is None:
            code = len(self._shapes)
            self._shapes.append((kind, name, tuple(sorted(labels.items()))))
            if shared:
                self._shape_codes[key] = code
        if type(t) is float and type(value) is float:
            self._times.append(t)
            self._values.append(value)
        else:
            self._as_written[len(codes)] = (t, value)
            self._times.append(0.0)
            self._values.append(0.0)
        codes.append(code)


def merge_phase_stats(tracers: Iterable[Optional[Tracer]],
                      seed: int = _TRACER_SEED) -> Dict[str, Dict[str, float]]:
    """Merge per-phase aggregates across experiments (figure-level view).

    Counts and totals are exact; quantiles come from a weighted merge of
    the per-tracer reservoirs, so an experiment with 10x the
    observations contributes ~10x the merged samples.
    """
    rng = random.Random(seed)
    merged: Dict[str, PhaseStats] = {}
    for tracer in tracers:
        if tracer is None:
            continue
        phases = tracer.phases()
        for name in sorted(phases):
            stats = phases[name]
            into = merged.get(name)
            if into is None:
                into = merged[name] = PhaseStats(stats.capacity)
            into.merge(stats, rng)
    return {name: merged[name].summary() for name in sorted(merged)}
