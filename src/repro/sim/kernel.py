"""A small deterministic discrete-event simulation kernel.

The kernel follows the familiar generator-based process model (as
popularised by SimPy) at the API surface: a *process* is a Python
generator that yields waitables and is resumed when they fire.
Simulated time only advances between events, so a multi-second
distributed experiment runs in milliseconds of wall-clock time and is
exactly reproducible.

Internally the event core is **array-structured** (see
``docs/KERNEL.md`` for the guided tour): the pending-event heap holds
``(when, sequence, handle)`` triples where ``handle`` is an integer
index into four parallel lists — kind tag plus up to three payload
slots — and a free-list recycles handles as events dispatch.  The
dominant event populations (network deliveries via
:meth:`Environment.call_later`, number-sleeps, queue hand-offs) never
allocate an :class:`Event` at all; the run loop dispatches on the kind
tag and runs their fast paths inline.  :class:`Event` remains as the
one-shot completion handle (process join, flush and device-write
completion) behind the ``_K_EVENT`` kind tag.

Every scheduled entry consumes exactly one sequence number and one
heap slot whatever its kind, so switching a call site between forms
never perturbs event ordering — the determinism rule all optimization
work in this repo lives by (``docs/PERFORMANCE.md``).

Only what the reproduction dispatches is implemented: number sleeps,
deferred calls, one-shot events with process join, and the
:class:`Channel` wait protocol used by :mod:`repro.sim.queues`.
Nothing is ever cancelled or thrown into a process from outside; a
process is resumed only by the one thing it waits on.  Ties in the
event heap are broken by insertion order, which makes every run
deterministic for a fixed seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator, List, Optional

# -- event-kind tags --------------------------------------------------------
#
# One small-int tag per heap-entry flavour, ordered roughly by dispatch
# frequency in a cluster benchmark.  Payload slot usage per kind:
#
#   kind       a            b            c        dispatch
#   _K_CALL    fn           arg          -        fn(arg)
#   _K_RESUME  process      channel      value    resume process with value
#                                                 (guarded: still waiting
#                                                 on that channel; a
#                                                 process start is a
#                                                 resume from no channel)
#   _K_SLEEP   process      -            -        wake a number-sleep
#                                                 (guarded: still asleep)
#   _K_SINK    channel      item         -        channel handler + pump
#   _K_EVENT   event        -            -        run a triggered Event's
#                                                 callbacks (slow path)

_K_CALL = 0
_K_RESUME = 1
_K_SLEEP = 2
_K_SINK = 3
_K_EVENT = 4

#: Human-readable kind names, indexable by tag (docs/diagnostics).
KIND_NAMES = ("call", "resume", "sleep", "sink", "event")


class SimulationError(RuntimeError):
    """Raised for misuse of the kernel (e.g. running a finished env)."""


class Event:
    """A one-shot event that processes can wait on.

    An event starts *pending*; it fires at most once via :meth:`succeed`
    or :meth:`fail`.  Processes waiting on it are scheduled to resume at
    the simulation time of the trigger.

    Events are the kernel's *slow path*: a triggered event occupies one
    ``_K_EVENT`` handle in the array core and runs its callback list
    when dispatched.  Hot call sites (deliveries, sleeps, queue
    hand-offs) use the Event-free kinds instead.
    """

    __slots__ = ("env", "_value", "_ok", "_triggered", "_callbacks", "_name")

    #: Class tag for the yield dispatcher: channels override to True.
    _sim_channel = False

    def __init__(self, env: "Environment", name: str = ""):
        self.env = env
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._callbacks: List[Callable[["Event"], None]] = []
        self._name = name

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def ok(self) -> bool:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._ok

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event has not been triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Fire the event successfully, delivering ``value`` to waiters."""
        if self._triggered:
            raise SimulationError(f"event {self._name!r} already triggered")
        self._triggered = True
        self._ok = True
        self._value = value
        self.env._schedule(self.env._now, _K_EVENT, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event as a failure; waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError(f"event {self._name!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self.env._now, _K_EVENT, self)
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<Event {self._name!r} {state}>"


class Channel:
    """Base class for waitable FIFO channels (``yield channel``).

    The kernel's side of the channel wait protocol:
    :mod:`repro.sim.queues` subclasses this with the user-facing API.
    A process that yields a channel either consumes an item immediately
    (scheduling its own ``_K_RESUME`` at the current time — exactly one
    sequence number) or parks itself on ``_waiters`` until a producer
    hands it an item.

    A channel with a ``_handler`` installed is a *sink*: items are
    dispatched to the handler function via ``_K_SINK`` entries instead
    of waking a consumer process (see ``docs/KERNEL.md``).
    """

    __slots__ = ("env", "_items", "_waiters", "_handler", "_pumping")

    _sim_channel = True

    #: Tracer gauge label for backlog depth; subclasses with named
    #: instances (repro.sim.queues.Queue) shadow this with a slot so
    #: the kernel's consume fast paths can report dequeues too —
    #: falsy means "unnamed, do not record".
    _depth_key = ""


ProcessGenerator = Generator[Any, Any, Any]


class Process(Event):
    """A running simulation process.

    A process wraps a generator; each yielded waitable — an
    :class:`Event`, a :class:`Channel`, or a plain number (sleep) —
    suspends the process until it fires.  The process itself is an
    event that fires with the generator's return value, so other
    processes can join on it by yielding it.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator, name: str = ""):
        super().__init__(env, name=name or getattr(generator, "__name__", "process"))
        self._generator = generator
        #: What the process is parked on: a channel, an event, itself
        #: (a number sleep) or None (running, finished, or not started).
        self._waiting_on: Optional[Any] = None
        # Kick the process off at the current simulation time: a resume
        # from no channel, with the ``None`` a fresh generator requires.
        env._schedule(env._now, _K_RESUME, self)

    # -- resumption -----------------------------------------------------
    #
    # Three entry points:
    #   _resume_value(value)  - hot path, called by the run loop for
    #                           _K_RESUME and _K_SLEEP dispatches
    #   _resume(event)        - callback of the Event the process waits
    #                           on (join, completion handles)
    #   _resume_throw(exc)    - failure path: a failed event raises in
    #                           its waiter
    #
    # _resume_value inlines the number-sleep and channel-wait branches
    # (the two dominant yields in a cluster run); _resume_throw arms
    # whatever its generator yields next through the cold _wait, which
    # draws the same sequence numbers.

    def _resume_value(self, value: Any) -> None:
        if self._triggered:
            return
        try:
            target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        cls = target.__class__
        if cls is float or cls is int:
            # Sleep fast path: one heap slot and one sequence number,
            # no Event.  ``_waiting_on = self`` marks the sleeper for
            # the dispatch guard.
            if target < 0:
                raise ValueError(f"negative sleep delay: {target}")
            self._waiting_on = self
            env = self.env
            env._sequence += 1
            free = env._free
            if free:
                handle = free.pop()
                env._ev_kind[handle] = _K_SLEEP
                env._ev_a[handle] = self
            else:
                handle = len(env._ev_kind)
                env._ev_kind.append(_K_SLEEP)
                env._ev_a.append(self)
                env._ev_b.append(None)
                env._ev_c.append(None)
            heapq.heappush(env._heap,
                           (env._now + target, env._sequence, handle))
            return
        try:
            is_channel = target._sim_channel
        except AttributeError:
            raise self._not_waitable(target) from None
        if is_channel:
            # Channel wait fast path: an available item schedules the
            # resume at the current time for one sequence number; an
            # empty channel parks the process with none consumed.
            self._waiting_on = target
            items = target._items
            if items:
                value = items.popleft()
                env = self.env
                env._sequence += 1
                free = env._free
                if free:
                    handle = free.pop()
                    env._ev_kind[handle] = _K_RESUME
                    env._ev_a[handle] = self
                    env._ev_b[handle] = target
                    env._ev_c[handle] = value
                else:
                    handle = len(env._ev_kind)
                    env._ev_kind.append(_K_RESUME)
                    env._ev_a.append(self)
                    env._ev_b.append(target)
                    env._ev_c.append(value)
                heapq.heappush(env._heap, (env._now, env._sequence, handle))
                # Dequeue side of the queue-depth gauge (no event is
                # recorded, so fingerprints are unchanged).
                tracer = env.tracer
                if tracer is not None and target._depth_key:
                    tracer.queue_depth(target._depth_key, len(items))
            else:
                target._waiters.append(self)
            return
        self._wait_event(target)

    def _resume(self, event: Event) -> None:
        # Resume only from the event being waited on.
        if self._waiting_on is event:
            self._waiting_on = None
            if event._ok:
                self._resume_value(event._value)
            else:
                self._resume_throw(event._value)

    def _resume_throw(self, exception: BaseException) -> None:
        if self._triggered:
            return
        try:
            target = self._generator.throw(exception)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        self._wait(target)

    def _wait(self, target: Any) -> None:
        """Arm the process on what it yielded: the cold form of the
        dispatch :meth:`_resume_value` inlines, drawing the same
        sequence numbers."""
        cls = target.__class__
        env = self.env
        if cls is float or cls is int:
            if target < 0:
                raise ValueError(f"negative sleep delay: {target}")
            self._waiting_on = self
            env._schedule(env._now + target, _K_SLEEP, self)
            return
        try:
            is_channel = target._sim_channel
        except AttributeError:
            raise self._not_waitable(target) from None
        if not is_channel:
            self._wait_event(target)
            return
        self._waiting_on = target
        items = target._items
        if items:
            env._schedule(env._now, _K_RESUME, self, target, items.popleft())
            if env.tracer is not None and target._depth_key:
                env.tracer.queue_depth(target._depth_key, len(items))
        else:
            target._waiters.append(self)

    def _wait_event(self, target: Event) -> None:
        self._waiting_on = target
        if target._triggered:
            self._resume(target)
        else:
            target._callbacks.append(self._resume)

    def _not_waitable(self, target: Any) -> SimulationError:
        return SimulationError(
            f"process {self._name!r} yielded {target!r}, "
            f"expected an Event, a Channel, or a number")


class Environment:
    """Event loop holding the simulation clock and the pending-event heap.

    The heap holds ``(when, sequence, handle)`` triples; the handle
    indexes the parallel ``_ev_kind`` / ``_ev_a`` / ``_ev_b`` /
    ``_ev_c`` lists and is recycled through ``_free`` when the entry
    dispatches.  Because the live-event population is bounded by the
    in-flight work of the simulation (not its length), the arrays stay
    small and recycled handles stay in CPython's small-int cache — the
    steady state allocates no per-event objects at all for the fast
    paths.  See ``docs/KERNEL.md``.
    """

    def __init__(self, tracer: Optional[Any] = None):
        self._now: float = 0.0
        self._heap: List[tuple] = []
        self._sequence = 0
        self._running = False
        # Parallel event arrays + handle free-list (the array core).
        self._ev_kind: List[int] = []
        self._ev_a: List[Any] = []
        self._ev_b: List[Any] = []
        self._ev_c: List[Any] = []
        self._free: List[int] = []
        #: Optional :class:`repro.obs.Tracer`.  The kernel never imports
        #: ``repro.obs``; any object with the hook methods works.  When
        #: None (the default) instrumented code pays one identity test
        #: per hook site and records nothing.
        self.tracer = tracer

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    # -- array-core introspection --------------------------------------

    @property
    def live_handle_high_watermark(self) -> int:
        """Peak number of simultaneously-live event handles.

        The arrays only grow when every recycled handle is in use, so
        their length *is* the high-watermark; it should track in-flight
        work (windows x clients), never run length.
        """
        return len(self._ev_kind)

    @property
    def handles_scheduled(self) -> int:
        """Total events ever scheduled (every push draws one sequence
        number and one handle)."""
        return self._sequence

    @property
    def free_list_reuse_rate(self) -> float:
        """Fraction of schedules served by recycling a freed handle."""
        if self._sequence == 0:
            return 0.0
        return 1.0 - len(self._ev_kind) / self._sequence

    # -- scheduling ---------------------------------------------------

    def _schedule(self, when: float, kind: int, a: Any, b: Any = None,
                  c: Any = None) -> None:
        """Push one ``kind`` entry due at ``when``: one sequence number,
        one handle (recycled via the free-list).  The cold form — the
        hot sites (call_later, the sleep and channel yields, the sink
        pump, Network.send) inline exactly this."""
        self._sequence += 1
        free = self._free
        if free:
            handle = free.pop()
            self._ev_kind[handle] = kind
            self._ev_a[handle] = a
            self._ev_b[handle] = b
            self._ev_c[handle] = c
        else:
            handle = len(self._ev_kind)
            self._ev_kind.append(kind)
            self._ev_a.append(a)
            self._ev_b.append(b)
            self._ev_c.append(c)
        heapq.heappush(self._heap, (when, self._sequence, handle))

    # -- public API ---------------------------------------------------

    def event(self, name: str = "") -> Event:
        return Event(self, name=name)

    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` to run after ``delay`` — the deferred-call
        fast path.

        The call lives in a recycled ``_K_CALL`` handle: no Event, no
        callback list.  Use only for fire-and-forget work: there is no
        handle to wait on, and the call cannot be cancelled.  Consumes
        one heap slot and one sequence number, like every other entry.
        """
        if delay < 0:
            raise ValueError(f"negative call_later delay: {delay}")
        self._sequence += 1
        free = self._free
        if free:
            handle = free.pop()
            self._ev_kind[handle] = _K_CALL
            self._ev_a[handle] = fn
            self._ev_b[handle] = arg
        else:
            handle = len(self._ev_kind)
            self._ev_kind.append(_K_CALL)
            self._ev_a.append(fn)
            self._ev_b.append(arg)
            self._ev_c.append(None)
        heapq.heappush(self._heap, (self._now + delay, self._sequence, handle))

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        if self.tracer is not None:
            self.tracer.counter("kernel.processes")
        return Process(self, generator, name=name)

    def run(self, until: Optional[float] = None) -> None:
        """Run until the heap drains or simulated time reaches ``until``.

        The loop body is the single hottest code in the repo, so it is
        written for speed: the heap, the event arrays, and the free-list
        are bound to locals, dispatch switches on the kind tag with the
        most frequent kinds first, and the per-event tracer hooks are
        replaced by a local dispatch count and heap-depth high-watermark
        flushed once at exit.  The flushed values are numerically
        identical to what per-event ``counter``/``queue_depth`` calls
        would have produced (integer sums and maxima commute), so trace
        fingerprints and BENCH artifacts are unchanged.
        """
        if self._running:
            raise SimulationError("environment is already running")
        self._running = True
        tracer = self.tracer
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        kinds = self._ev_kind
        arg_a = self._ev_a
        arg_b = self._ev_b
        arg_c = self._ev_c
        free = self._free
        free_append = free.append
        dispatched = 0
        peak_depth = -1
        try:
            while heap:
                when = heap[0][0]
                if until is not None and when > until:
                    self._now = until
                    return
                entry = pop(heap)
                self._now = when
                if tracer is not None:
                    dispatched += 1
                    depth = len(heap)
                    if depth > peak_depth:
                        peak_depth = depth
                handle = entry[2]
                kind = kinds[handle]
                a = arg_a[handle]
                b = arg_b[handle]
                # Release the slot before dispatching: the payload may
                # itself schedule (and so recycle the handle), and
                # clearing the refs keeps dead messages collectable.
                arg_a[handle] = None
                arg_b[handle] = None
                free_append(handle)
                if kind == 0:  # _K_CALL
                    a(b)
                elif kind == 1:  # _K_RESUME
                    c = arg_c[handle]
                    arg_c[handle] = None
                    if a._waiting_on is b:
                        a._waiting_on = None
                        a._resume_value(c)
                elif kind == 2:  # _K_SLEEP
                    if a._waiting_on is a:
                        a._waiting_on = None
                        a._resume_value(None)
                elif kind == 3:  # _K_SINK
                    a._handler(b)
                    # Pump: hand the next queued item to the handler at
                    # a fresh sequence number, so each item is handled
                    # in its own simulation step.
                    items = a._items
                    if items:
                        item = items.popleft()
                        self._sequence += 1
                        if free:
                            nxt = free.pop()
                            kinds[nxt] = 3
                            arg_a[nxt] = a
                            arg_b[nxt] = item
                        else:
                            nxt = len(kinds)
                            kinds.append(3)
                            arg_a.append(a)
                            arg_b.append(item)
                            arg_c.append(None)
                        push(heap, (when, self._sequence, nxt))
                        if tracer is not None:
                            dk = a._depth_key
                            if dk:
                                tracer.queue_depth(dk, len(items))
                    else:
                        a._pumping = False
                else:  # _K_EVENT
                    callbacks = a._callbacks
                    a._callbacks = []
                    for callback in callbacks:
                        callback(a)
            if until is not None:
                self._now = until
        finally:
            self._running = False
            if tracer is not None and dispatched:
                tracer.counter("kernel.dispatched", dispatched)
                tracer.queue_depth("kernel.heap", peak_depth)

    def peek(self) -> Optional[float]:
        """Time of the next scheduled event, or None if the heap is empty."""
        return self._heap[0][0] if self._heap else None
