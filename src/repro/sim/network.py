"""Datacenter network model.

Models the paper's intra-datacenter TCP setup with accelerated networking:
messages between endpoints experience a small one-way base latency, a
per-operation serialization cost (so large batches amortize the fixed
cost, the effect behind Figures 13 and 15), and optional jitter.

Endpoints that are *down* silently drop traffic, which is how worker
crashes manifest to their peers until the cluster manager intervenes.
An installed :class:`~repro.sim.faults.FaultPlan` adds the partial
failure shapes — probabilistic drop, duplication, bounded reorder, and
scheduled partitions — that real networks exhibit between crashes.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.sim.faults import FaultPlan
from repro.sim.kernel import Environment
from repro.sim.queues import Queue
from repro.sim.rand import make_rng


class Message:
    """A delivered network message.

    A plain ``__slots__`` class rather than a dataclass: one Message is
    allocated per delivery attempt, which makes construction cost part
    of the per-batch hot path.
    """

    __slots__ = ("src", "dst", "payload", "size_ops", "send_time", "deliver_time")

    def __init__(self, src: str, dst: str, payload: Any, size_ops: int = 1,
                 send_time: float = 0.0, deliver_time: float = 0.0):
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_ops = size_ops
        self.send_time = send_time
        self.deliver_time = deliver_time

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Message(src={self.src!r}, dst={self.dst!r}, "
                f"payload={self.payload!r}, size_ops={self.size_ops})")


@dataclass
class Endpoint:
    """A named party on the network with an inbox queue."""

    address: str
    inbox: Queue
    up: bool = field(default=True, init=False)
    #: Messages dropped while the endpoint was down (for assertions).
    dropped: int = field(default=0, init=False)
    #: Monotonic counters for observability.
    sent: int = field(default=0, init=False)
    received: int = field(default=0, init=False)
    #: ``src -> "src>address"``: one trace label string per link, so a
    #: delivery neither builds nor hashes a new one.
    link_labels: Dict[str, str] = field(default_factory=dict, init=False)


class Network:
    """Connects endpoints and delivers messages with modelled latency.

    The latencies, in seconds, approximate an Azure availability-set
    with accelerated networking: ~50 us one-way, ~25 ns/operation of
    serialization + wire time for the small YCSB records the paper
    uses, and a few microseconds of jitter.
    """

    BASE_ONEWAY = 50e-6
    PER_OP = 25e-9
    JITTER_STDDEV = 5e-6
    #: When co-located (client thread on the server), loopback messages
    #: skip the NIC entirely.
    LOOPBACK_LATENCY = 0.0

    def __init__(
        self,
        env: Environment,
        rng: Optional[random.Random] = None,
        faults: Optional[FaultPlan] = None,
    ):
        self.env = env
        self._rng = make_rng(rng)
        self._endpoints: Dict[str, Endpoint] = {}
        self.faults = faults

    def register(self, address: str) -> Endpoint:
        """Create (or return) the endpoint for ``address``."""
        if address in self._endpoints:
            return self._endpoints[address]
        endpoint = Endpoint(address=address, inbox=Queue(self.env, name=f"inbox:{address}"))
        self._endpoints[address] = endpoint
        return endpoint

    def set_up(self, address: str, up: bool) -> None:
        """Mark an endpoint as up/down (down endpoints drop messages)."""
        self._endpoints[address].up = up

    def send(self, src: str, dst: str, payload: Any, size_ops: int = 1) -> None:
        """Asynchronously deliver ``payload`` from ``src`` to ``dst``.

        Delivery is dropped if either endpoint is down at send time or
        the destination is down at delivery time (crash semantics).  An
        installed fault plan may additionally drop, duplicate, or delay
        the message (loopback traffic never traverses the NIC and is
        exempt).
        """
        sender = self._endpoints[src]
        target = self._endpoints[dst]
        tracer = self.env.tracer
        if not sender.up or not target.up:
            target.dropped += 1
            if tracer is not None:
                tracer.counter("net.dropped_down")
            return
        if self.faults is not None and src != dst:
            extra_delays = self.faults.deliveries(src, dst, self.env.now)
            if not extra_delays:
                target.dropped += 1
                if tracer is not None:
                    tracer.counter("net.fault_lost")
                return
        else:
            extra_delays = (0.0,)
        sender.sent += 1
        env = self.env
        now = env._now
        heap = env._heap
        deliver = self._deliver
        kinds = env._ev_kind
        arg_a = env._ev_a
        arg_b = env._ev_b
        free = env._free
        for extra in extra_delays:
            # One-way delivery latency, computed inline: send() is the
            # hottest cluster entry point, and the jitter draw order is
            # part of the output bytes.
            if src == dst:
                delay = self.LOOPBACK_LATENCY
            else:
                delay = self.BASE_ONEWAY + self.PER_OP * size_ops
                if self.JITTER_STDDEV > 0:
                    delay += abs(self._rng.gauss(0.0, self.JITTER_STDDEV))
            delay += extra
            message = Message(src, dst, payload, size_ops, now, now + delay)
            # Fast path: one recycled _K_CALL handle per delivery, no
            # per-message closure.  Inlined env.call_later(...).
            env._sequence += 1
            if free:
                handle = free.pop()
                kinds[handle] = 0  # _K_CALL
                arg_a[handle] = deliver
                arg_b[handle] = message
            else:
                handle = len(kinds)
                kinds.append(0)
                arg_a.append(deliver)
                arg_b.append(message)
                env._ev_c.append(None)
            heapq.heappush(heap, (now + delay, env._sequence, handle))

    def _deliver(self, message: Message) -> None:
        """Complete an in-flight delivery (runs at ``deliver_time``)."""
        target = self._endpoints[message.dst]
        tracer = self.env.tracer
        if not target.up:
            target.dropped += 1
            if tracer is not None:
                tracer.counter("net.dropped_down")
            return
        target.received += 1
        target.inbox.put(message)
        if tracer is not None:
            now = self.env.now
            link = target.link_labels.get(message.src)
            if link is None:
                link = target.link_labels[message.src] = (
                    message.src + ">" + message.dst)
            tracer.span("net.delivery", now, now - message.send_time,
                        link=link)
