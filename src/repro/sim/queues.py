"""Unbounded FIFO queues for inter-process communication.

A :class:`Queue` is the kernel's channel primitive.  Producers call
:meth:`Queue.put` (which never blocks); consumers pick one of two wait
styles, cheapest first:

1. **Sink mode** (:meth:`Queue.set_handler`): a plain function is
   invoked once per item via the kernel's ``_K_SINK`` fast path — no
   consumer generator at all.  For pure message loops (receive,
   handle, repeat) this is the whole loop.
2. **Channel wait** (``yield queue``): the yielding process is parked
   on the queue and resumed with the next item through the kernel's
   ``_K_RESUME`` fast path.  For consumers that yield mid-body.

Both consume items from one FIFO and wake waiters in FIFO order, and
each hand-off costs exactly one kernel sequence number regardless of
style, so converting a consumer between styles never perturbs event
ordering (docs/PERFORMANCE.md).

Named queues report their *backlog* depth to the tracer on every
enqueue **and** dequeue (including the kernel's channel-wait and sink
fast paths), so the ``queue.<name>`` gauge decays back to 0 as
consumers drain while the high-watermark keeps the peak.  Items handed
straight to a waiter or an idle sink handler never enter the backlog
and leave the gauge untouched.

:class:`BoundedQueue` adds the admission-control variant: a finite
backlog with a shed-oldest or reject overload policy, shed counters,
and an eviction callback (docs/OPENLOOP.md).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional

from repro.sim.kernel import _K_RESUME, _K_SINK, Channel, Environment


class _Empty:
    """Sentinel type distinguishing "queue empty" from an enqueued
    ``None`` in :meth:`Queue.try_get` (single instance: :data:`EMPTY`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EMPTY"


#: Pass ``default=EMPTY`` to :meth:`Queue.try_get` when enqueued items
#: may legitimately be ``None``.
EMPTY = _Empty()


class Queue(Channel):
    """An unbounded deterministic FIFO channel."""

    __slots__ = ("name", "_depth_key")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items = deque()
        #: Parked consumer processes (channel waits), FIFO.
        self._waiters = deque()
        #: Sink-mode handler (see :meth:`set_handler`); None for
        #: consumer-driven queues.
        self._handler: Optional[Callable[[Any], None]] = None
        #: True while a ``_K_SINK`` dispatch is in flight; the kernel's
        #: pump clears it when the queue drains, so each item is handled
        #: at its own sequence number in arrival order.
        self._pumping = False
        # The label is built once here: put() runs hundreds of thousands
        # of times per bench, so per-call formatting shows up.
        self._depth_key = ("queue." + name) if name else ""

    def __len__(self) -> int:
        return len(self._items)

    def _record_depth(self) -> None:
        """Report the backlog depth to the tracer (both directions)."""
        tracer = self.env.tracer
        if tracer is not None and self._depth_key:
            tracer.queue_depth(self._depth_key, len(self._items))

    def set_handler(self, handler: Callable[[Any], None]) -> None:
        """Switch the queue to sink mode: ``handler(item)`` runs once
        per put, in put order, each at its own simulation step.

        The handler must be a plain function (it cannot yield); any
        waiting it needs must go through processes it schedules.  A
        queue can't mix sink mode with waiting consumers.  A backlog
        accumulated before the handler was installed starts draining
        to it immediately (it is not stranded).
        """
        if self._waiters:
            raise RuntimeError(
                f"queue {self.name!r} has waiting consumers; cannot "
                f"switch to sink mode")
        self._handler = handler
        if self._items and not self._pumping:
            self._pumping = True
            env = self.env
            env._schedule(env._now, _K_SINK, self, self._items.popleft())
            self._record_depth()

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest waiting consumer, if any."""
        env = self.env
        if self._waiters:
            # Hand the item to the parked process through the kernel
            # (one sequence number, like every hand-off).
            env._schedule(env._now, _K_RESUME, self._waiters.popleft(),
                          self, item)
        elif self._handler is not None and not self._pumping:
            self._pumping = True
            env._schedule(env._now, _K_SINK, self, item)
        else:
            self._items.append(item)
            tracer = env.tracer
            if tracer is not None and self._depth_key:
                tracer.queue_depth(self._depth_key, len(self._items))

    def try_get(self, default: Any = None) -> Any:
        """Non-blocking get; returns ``default`` when nothing is queued.

        Pass ``default=EMPTY`` (the module sentinel) when enqueued items
        may legitimately be ``None``.
        """
        items = self._items
        if items:
            item = items.popleft()
            self._record_depth()
            return item
        return default

    def drain(self) -> List[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        if items:
            self._record_depth()
        return items


class BoundedQueue(Queue):
    """A :class:`Queue` with a finite backlog and an overload policy.

    The admission-control primitive between an open-loop generator and
    the cluster (docs/OPENLOOP.md).  When a put would push the backlog
    past ``capacity``:

    - ``"shed-oldest"`` evicts the head (the oldest queued item) to
      make room — bounding *queueing delay* at the cost of dropping
      stale work;
    - ``"reject"`` refuses the newcomer — bounding *accepted work* and
      preserving everything already queued.

    Either way the victim is counted (``shed_items``/``rejected_items``
    plus a ``queue.<name>.shed``/``.rejected`` tracer counter) and
    handed to ``on_shed`` so the owner can release per-item state.  The
    cap applies to the backlog only: items handed straight to a waiter
    or an idle sink handler never queue, so they are never shed.
    """

    __slots__ = ("capacity", "policy", "on_shed", "shed_items",
                 "rejected_items", "_shed_key", "_reject_key")

    POLICIES = ("shed-oldest", "reject")

    def __init__(self, env: Environment, capacity: int, name: str = "",
                 policy: str = "shed-oldest",
                 on_shed: Optional[Callable[[Any], None]] = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; expected one of {self.POLICIES}")
        super().__init__(env, name=name)
        self.capacity = capacity
        self.policy = policy
        self.on_shed = on_shed
        self.shed_items = 0
        self.rejected_items = 0
        base = self._depth_key or "queue"
        self._shed_key = base + ".shed"
        self._reject_key = base + ".rejected"

    def put(self, item: Any) -> None:
        # The capacity check only matters when the item would join the
        # backlog: waiters or an idle sink handler take the item
        # without queueing it.
        if (len(self._items) >= self.capacity and not self._waiters
                and (self._handler is None or self._pumping)):
            tracer = self.env.tracer
            if self.policy == "reject":
                self.rejected_items += 1
                if tracer is not None:
                    tracer.counter(self._reject_key)
                if self.on_shed is not None:
                    self.on_shed(item)
                return
            victim = self._items.popleft()
            self.shed_items += 1
            if tracer is not None:
                tracer.counter(self._shed_key)
            if self.on_shed is not None:
                self.on_shed(victim)
        super().put(item)
