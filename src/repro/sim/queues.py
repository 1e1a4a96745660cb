"""Unbounded FIFO queues for inter-process communication.

A :class:`Queue` is the kernel's channel primitive.  Producers call
:meth:`Queue.put` (which never blocks); consumers pick one of three
wait styles, cheapest first:

1. **Sink mode** (:meth:`Queue.set_handler`): a plain function is
   invoked once per item via the kernel's ``_K_SINK`` fast path — no
   consumer generator, no per-item Event.  For pure message loops
   (``while True: msg = yield q.get(); handle(msg)``) this is the
   whole loop, minus the generator.
2. **Channel wait** (``yield queue``): the yielding process is parked
   on the queue and resumed with the next item through the kernel's
   ``_K_RESUME`` fast path — no per-get Event allocation.
3. **Legacy get** (``yield queue.get()``): returns an :class:`Event`
   that fires with the next item.  Still the right call when the event
   handle itself is needed.

All three consume items from one FIFO and wake waiters in FIFO order,
and each hand-off costs exactly one kernel sequence number regardless
of style, so converting a consumer between styles never perturbs event
ordering (docs/PERFORMANCE.md).

Named queues report their *backlog* depth to the tracer on every
enqueue **and** dequeue (including the kernel's channel-wait and sink
fast paths), so the ``queue.<name>`` gauge decays back to 0 as
consumers drain while the high-watermark keeps the peak.  Items handed
straight to a waiter or an idle sink handler never enter the backlog
and leave the gauge untouched.

Closing follows *drain-then-fail* semantics: :meth:`Queue.close`
refuses new puts immediately, but every already-accepted item remains
consumable — getters are served from the backlog, and a sink handler
keeps pumping until the backlog is empty — and only then do getters
fail with :class:`QueueClosed`.

:class:`BoundedQueue` adds the admission-control variant: a finite
backlog with a shed-oldest or reject overload policy, shed counters,
and an eviction callback (docs/OPENLOOP.md).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, List, Optional

from repro.sim.kernel import Channel, Environment, Event

_EVENT = Event  # class-identity test in put(); bound once


class _Empty:
    """Sentinel type distinguishing "queue empty" from an enqueued
    ``None`` in :meth:`Queue.try_get` (single instance: :data:`EMPTY`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "EMPTY"


#: Pass ``default=EMPTY`` to :meth:`Queue.try_get` when enqueued items
#: may legitimately be ``None``.
EMPTY = _Empty()


class QueueClosed(Exception):
    """Raised into getters when a queue is closed with no items left."""


class Queue(Channel):
    """An unbounded deterministic FIFO channel."""

    __slots__ = ("name", "_depth_key", "_get_name")

    def __init__(self, env: Environment, name: str = ""):
        self.env = env
        self.name = name
        self._items = deque()
        #: Parked consumers, FIFO.  Holds :class:`Process` objects
        #: (channel waits) and :class:`Event` objects (legacy getters),
        #: discriminated by class in :meth:`put`.
        self._waiters = deque()
        self._closed = False
        #: Sink-mode handler (see :meth:`set_handler`); None for
        #: consumer-driven queues.
        self._handler: Optional[Callable[[Any], None]] = None
        #: True while a ``_K_SINK`` dispatch is in flight; the kernel's
        #: pump clears it when the queue drains, so each item is handled
        #: at its own sequence number in arrival order.
        self._pumping = False
        # Label strings are built once here: put()/get() run hundreds of
        # thousands of times per bench, so per-call formatting shows up.
        self._depth_key = ("queue." + name) if name else ""
        self._get_name = "get:" + name

    def __len__(self) -> int:
        return len(self._items)

    @property
    def closed(self) -> bool:
        return self._closed

    def _closed_error(self) -> QueueClosed:
        return QueueClosed(f"queue {self.name!r} is closed")

    def _record_depth(self) -> None:
        """Report the backlog depth to the tracer (both directions)."""
        tracer = self.env.tracer
        if tracer is not None and self._depth_key:
            tracer.queue_depth(self._depth_key, len(self._items))

    def _start_pump(self) -> None:
        """Hand the oldest backlog item to the sink handler."""
        self._pumping = True
        self.env._schedule_sink(self, self._items.popleft())
        self._record_depth()

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
            self._start_pump()

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest waiting consumer, if any."""
        if self._closed:
            raise QueueClosed(f"queue {self.name!r} is closed")
        if self._waiters:
            waiter = self._waiters.popleft()
            if waiter.__class__ is _EVENT:
                waiter.succeed(item)
            else:
                # A channel-waiting process: hand the item over via the
                # kernel fast path (one sequence number, exactly like
                # the getter Event's succeed above).
                self.env._schedule_resume(waiter, self, item)
        elif self._handler is not None and not self._pumping:
            self._pumping = True
            self.env._schedule_sink(self, item)
        else:
            self._items.append(item)
            tracer = self.env.tracer
            if tracer is not None and self._depth_key:
                tracer.queue_depth(self._depth_key, len(self._items))

    def get(self) -> Event:
        """Return an event that fires with the next item.

        Prefer ``yield queue`` (no Event allocation) unless the handle
        itself is needed.
        """
        event = Event(self.env, name=self._get_name)
        items = self._items
        if items:
            event.succeed(items.popleft())
            self._record_depth()
        elif self._closed:
            event.fail(QueueClosed(f"queue {self.name!r} is closed"))
        else:
            self._waiters.append(event)
        return event

    def try_get(self, default: Any = None) -> Any:
        """Non-blocking get; returns ``default`` when nothing is queued.

        Drain-then-fail: a closed queue still yields its backlog, and
        only once that is gone does try_get raise :class:`QueueClosed`
        instead of masquerading as merely empty.  Pass ``default=EMPTY``
        (the module sentinel) when enqueued items may legitimately be
        ``None``.
        """
        items = self._items
        if items:
            item = items.popleft()
            self._record_depth()
            return item
        if self._closed:
            raise self._closed_error()
        return default

    def drain(self) -> List[Any]:
        """Remove and return all queued items without blocking."""
        items = list(self._items)
        self._items.clear()
        if items:
            self._record_depth()
        return items

    def close(self) -> None:
        """Close the queue: *drain-then-fail*.

        New puts fail immediately.  Already-accepted items stay
        consumable: getters keep draining the backlog (waiters can only
        exist when the backlog is empty, so they fail at once), and a
        sink handler keeps pumping until the backlog is gone.  Only an
        empty, closed queue fails its getters.
        """
        if self._closed:
            return
        self._closed = True
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.__class__ is _EVENT:
                waiter.fail(QueueClosed(f"queue {self.name!r} is closed"))
            else:
                self.env._schedule_throw(
                    waiter, self, QueueClosed(f"queue {self.name!r} is closed"))
        # Defensive: with set_handler() pumping pre-existing backlogs
        # this cannot trigger, but a stranded sink backlog would
        # otherwise be silently dropped, so keep the guarantee local.
        if self._handler is not None and self._items and not self._pumping:
            self._start_pump()


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
        # backlog: a closed queue raises in super().put, and waiters or
        # an idle sink handler take the item without queueing it.
        if (len(self._items) >= self.capacity and not self._closed
                and not self._waiters
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
