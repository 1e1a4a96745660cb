"""Deterministic fault injection for the simulated testbed.

The base :mod:`repro.sim.network` models exactly one failure shape — a
down endpoint silently dropping traffic — which lets every protocol
service above it assume reliable, ordered, exactly-once delivery.  A
:class:`FaultPlan` breaks that assumption on purpose: per-link
probabilistic message **drop**, **duplication** and bounded **reorder**
delay, scheduled bidirectional **partitions** between endpoint groups,
and metadata-store **outages** / latency spikes.  All decisions come
from one seeded RNG, so a chaos run is exactly reproducible from
``(cluster seed, fault seed)`` — the same property the kernel promises
for fault-free runs.

A plan is pluggable: :class:`~repro.sim.network.Network` consults
``plan.deliveries()`` per message, and
:class:`~repro.cluster.metadata.MetadataStore` consults
``plan.metadata_delay()`` per access.  With no plan installed the
simulation behaves (and draws randomness) exactly as before.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.sim.rand import Seedable, make_rng


@dataclass(frozen=True)
class LinkFault:
    """Probabilistic delivery faults on links matching ``src -> dst``.

    ``src``/``dst`` are ``fnmatch`` glob patterns over endpoint
    addresses (``"worker-*"``, ``"*"``); the first rule in plan order
    that matches a message decides its fate.  Probabilities are
    per-message; a duplicated message yields two independent copies, and
    a reordered copy is delayed by up to ``reorder_delay`` extra seconds
    (bounded, so delivery is late but never lost).
    """

    src: str = "*"
    dst: str = "*"
    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: Upper bound on the extra delay of a reordered or duplicated copy.
    reorder_delay: float = 2e-3

    def matches(self, src: str, dst: str) -> bool:
        return (fnmatch.fnmatchcase(src, self.src)
                and fnmatch.fnmatchcase(dst, self.dst))


@dataclass(frozen=True)
class Partition:
    """A scheduled bidirectional partition between two endpoint groups.

    While ``start <= now < end``, every message between a member of
    ``group_a`` and a member of ``group_b`` (either direction) is
    dropped.  Group members are glob patterns; traffic within one group
    is unaffected.
    """

    group_a: Tuple[str, ...]
    group_b: Tuple[str, ...]
    start: float
    end: float

    def severs(self, src: str, dst: str, now: float) -> bool:
        if not (self.start <= now < self.end):
            return False
        return ((self._member(src, self.group_a)
                 and self._member(dst, self.group_b))
                or (self._member(src, self.group_b)
                    and self._member(dst, self.group_a)))

    @staticmethod
    def _member(address: str, group: Tuple[str, ...]) -> bool:
        return any(fnmatch.fnmatchcase(address, pattern)
                   for pattern in group)


@dataclass(frozen=True)
class MetadataOutage:
    """Metadata store unavailable during ``[start, end)``.

    Accesses started inside the window stall until the outage lifts
    (plus the normal round trip).  Long outages force the finder
    service's coordinator to fail over, which pushes
    :class:`~repro.core.finder.hybrid.HybridDprFinder` onto its
    approximate fallback (§3.4).
    """

    start: float
    end: float


@dataclass(frozen=True)
class MetadataSpike:
    """Latency spike: accesses in ``[start, end)`` pay ``extra`` more."""

    start: float
    end: float
    extra: float


class FaultPlan:
    """A seeded, replayable schedule of injected faults.

    The plan owns one RNG stream, separate from the simulation's own
    generators, so the *schedule* of faults is a pure function of the
    fault seed and the (deterministic) order of delivery decisions.
    ``injected`` counts what actually fired, for assertions that a chaos
    scenario exercised every fault shape it claimed to.
    """

    def __init__(
        self,
        seed: Seedable,
        links: Sequence[LinkFault] = (),
        partitions: Sequence[Partition] = (),
        metadata_outages: Sequence[MetadataOutage] = (),
        metadata_spikes: Sequence[MetadataSpike] = (),
    ):
        self.seed = seed
        self._rng = make_rng(seed)
        self.links = tuple(links)
        self.partitions = tuple(partitions)
        self.metadata_outages = tuple(metadata_outages)
        self.metadata_spikes = tuple(metadata_spikes)
        self.injected: Dict[str, int] = {
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "partitioned": 0,
            "metadata_outages": 0,
            "metadata_spikes": 0,
        }
        self._tracer = None
        #: ``(src, dst)`` -> first matching link rule (or None).
        self._link_rules: Dict[Tuple[str, str], Optional[LinkFault]] = {}

    def bind_tracer(self, tracer) -> None:
        """Mirror every future ``injected`` increment into ``tracer``
        counters (``faults.dropped`` etc.).  Pass None to unbind."""
        self._tracer = tracer

    def _inject(self, kind: str) -> None:
        self.injected[kind] += 1
        if self._tracer is not None:
            self._tracer.counter("faults." + kind)

    def replay(self) -> "FaultPlan":
        """A fresh plan with the same schedule and a rewound RNG.

        Plans are stateful (RNG position, counters); reruns of the same
        scenario must use a replayed plan, never the consumed one.
        """
        if isinstance(self.seed, random.Random):
            raise ValueError(
                "replay() needs an int-seeded plan; construct FaultPlan "
                "with an integer seed to make runs replayable"
            )
        return FaultPlan(self.seed, self.links, self.partitions,
                         self.metadata_outages, self.metadata_spikes)

    # -- network faults ----------------------------------------------------

    def deliveries(self, src: str, dst: str, now: float) -> List[float]:
        """Extra delays for each delivered copy of one message.

        ``[]`` means the message is lost (partition or probabilistic
        drop); ``[0.0]`` is a normal single delivery; a reordered copy
        carries a positive extra delay; duplication appends a second,
        independently delayed copy.
        """
        for partition in self.partitions:
            if partition.severs(src, dst, now):
                self._inject("partitioned")
                return []
        rule = self._rule_for(src, dst)
        if rule is None:
            return [0.0]
        rng = self._rng
        if rule.drop > 0.0 and rng.random() < rule.drop:
            self._inject("dropped")
            return []
        extra = 0.0
        if rule.reorder > 0.0 and rng.random() < rule.reorder:
            extra = rng.uniform(0.0, rule.reorder_delay)
            self._inject("reordered")
        copies = [extra]
        if rule.duplicate > 0.0 and rng.random() < rule.duplicate:
            copies.append(extra + rng.uniform(0.0, rule.reorder_delay))
            self._inject("duplicated")
        return copies

    def _rule_for(self, src: str, dst: str) -> Optional[LinkFault]:
        """The first link rule matching ``src -> dst``: a pure function
        of two addresses over the immutable ``links``, so it is matched
        once per link, not once per message."""
        link = (src, dst)
        try:
            return self._link_rules[link]
        except KeyError:
            rule = next((rule for rule in self.links
                         if rule.matches(src, dst)), None)
            self._link_rules[link] = rule
            return rule

    # -- metadata faults ---------------------------------------------------

    def metadata_delay(self, now: float) -> float:
        """Extra latency for a metadata access starting at ``now``."""
        delay = 0.0
        for outage in self.metadata_outages:
            if outage.start <= now < outage.end:
                self._inject("metadata_outages")
                delay = max(delay, outage.end - now)
        for spike in self.metadata_spikes:
            if spike.start <= now < spike.end:
                self._inject("metadata_spikes")
                delay += spike.extra
        return delay
