"""A small discrete-event simulation kernel.

The kernel follows the familiar generator-coroutine style: a *process*
is a Python generator that ``yield``s :class:`Event` objects and is
resumed when they fire.  It is deliberately minimal — just enough to
model an I/O stack — and fully deterministic.

Ordering contract
-----------------
Every trigger (a timeout, ``succeed``/``fail``, a process start, an
interrupt) is due at ``now + delay``; items due at one instant are
processed in the order they were triggered.  So timers that land on the
same instant fire in schedule order, all of them before any zero-delay
trigger made at that instant, and those then run first-in first-out.
A delay too small to move the clock (``now + delay == now``) counts as
zero.  The DuraSSD results depend on this order (ordered-NCQ
persistence, the instant a power cut lands, reads stalling behind
flush-cache), so the kernel never reorders it.

Two queues implement it: a heap of future timers keyed by ``(instant,
schedule sequence)`` and a ``deque`` of items ready at the current
instant.  When the ready queue runs dry the clock jumps to the earliest
timer and *every* timer due then moves to the ready queue, in heap
order, before any of them runs.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> p1 = sim.process(worker(sim, 'a', 2.0))
>>> p2 = sim.process(worker(sim, 'b', 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

import heapq
from collections import deque
from itertools import count

from ..telemetry.hub import Telemetry


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class StopSimulation(Exception):
    """Raised inside a callback to halt :meth:`Simulator.run` immediately.

    The power-failure injector uses this to freeze the simulated world at
    the instant the power is cut.
    """


_PENDING = 0
_TRIGGERED = 1
_PROCESSED = 2


class Event:
    """A one-shot occurrence processes can wait on.

    An event is *triggered* (with a value or an exception) exactly once;
    at its scheduled instant it becomes *processed* and its callbacks run.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _PENDING

    @property
    def triggered(self):
        return self._state >= _TRIGGERED

    @property
    def processed(self):
        return self._state == _PROCESSED

    @property
    def ok(self):
        """True when the event carries a value rather than an exception."""
        return self._ok

    @property
    def value(self):
        """The value (or exception) the event was triggered with."""
        return self._value

    def succeed(self, value=None, delay=0.0):
        """Trigger the event successfully, firing after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        if delay < 0:
            raise SimulationError("negative delay: %r" % (delay,))
        self._value = value
        self._ok = True
        self._state = _TRIGGERED
        if delay:
            self.sim._push(self, delay)
        else:
            self.sim._ready.append(self)
        return self

    def fail(self, exception, delay=0.0):
        """Trigger the event with an exception to be thrown into waiters."""
        if self._state != _PENDING:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if delay < 0:
            raise SimulationError("negative delay: %r" % (delay,))
        self._value = exception
        self._ok = False
        self._state = _TRIGGERED
        if delay:
            self.sim._push(self, delay)
        else:
            self.sim._ready.append(self)
        return self

    def _process(self):
        # Simulator._loop runs an inline copy of this body.
        self._state = _PROCESSED
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)


class Timeout(Event):
    """An event that fires automatically after a fixed delay."""

    __slots__ = ()

    def __init__(self, sim, delay, value=None):
        if delay < 0:
            raise SimulationError("negative timeout: %r" % delay)
        Event.__init__(self, sim)
        self._value = value
        self._state = _TRIGGERED
        sim._push(self, delay)


class Interrupted(Exception):
    """Thrown into a process that was interrupted.

    ``cause`` carries whatever the interrupter supplied (for example the
    power-failure record).
    """

    def __init__(self, cause=None):
        super().__init__(cause)
        self.cause = cause


class _Start:
    """The ready-queue item that runs a new process's first step.

    It stands in for a bootstrap :class:`Event`: it is processed like
    one (and counts in ``processed_events``) but carries no callback list
    and no bound method, and it references the process only one way.
    """

    __slots__ = ("process",)

    _ok = True
    _value = None

    def __init__(self, process):
        self.process = process

    def _process(self):
        self.process._resume(self)


class Process(Event):
    """Runs a generator, resuming it whenever the yielded event fires.

    The process itself is an event: it triggers with the generator's
    return value, or fails with its uncaught exception, so processes can
    wait on each other.
    """

    __slots__ = ("_generator", "_waiting_on", "span")

    def __init__(self, sim, generator):
        Event.__init__(self, sim)
        if not hasattr(generator, "send"):
            raise SimulationError("process requires a generator, got %r" % (generator,))
        self._generator = generator
        self._waiting_on = None
        # Telemetry span context: a spawned process inherits the span of
        # whoever spawned it, so causality follows process fan-out.
        creator = sim._active_process
        self.span = creator.span if creator is not None \
            else sim.telemetry._ambient
        # Kick off at the current instant (deterministically ordered).
        sim._ready.append(_Start(self))

    @property
    def is_alive(self):
        return self._state == _PENDING

    def interrupt(self, cause=None):
        """Throw :class:`Interrupted` into the process at the current
        instant, after everything already due now.

        The event the process waits on stops resuming it at once.  So
        does whatever it waits on when the interrupt is delivered: it may
        have made its first step, or caught an earlier interrupt, since.
        """
        if self._state != _PENDING:
            return
        self._detach()
        poke = Event(self.sim)
        poke.callbacks.append(self._interrupted)
        poke.succeed(cause)

    def _detach(self):
        target = self._waiting_on
        if target is not None:
            self._waiting_on = None
            callbacks = target.callbacks
            resume = self._resume
            if resume in callbacks:
                callbacks.remove(resume)

    def _interrupted(self, poke):
        self._detach()
        self._throw(Interrupted(poke._value))

    def _throw(self, exception):
        if not self.is_alive:
            return
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            try:
                result = self._generator.throw(exception)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                self._terminate(exc)
                return
        finally:
            sim._active_process = previous
        self._wait_on(result)

    def _resume(self, event):
        self._waiting_on = None
        sim = self.sim
        previous = sim._active_process
        sim._active_process = self
        try:
            try:
                if event._ok:
                    result = self._generator.send(event._value)
                else:
                    result = self._generator.throw(event._value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - propagate into waiters
                self._terminate(exc)
                return
        finally:
            sim._active_process = previous
        # The common case of _wait_on, inline: a pending or triggered event.
        if isinstance(result, Event) and result._state != _PROCESSED:
            result.callbacks.append(self._resume)
            self._waiting_on = result
        else:
            self._wait_on(result)

    def _wait_on(self, result):
        if not isinstance(result, Event):
            self._throw(SimulationError("process yielded a non-event: %r" % (result,)))
            return
        if result._state == _PROCESSED:
            # Already fired: resume on a fresh zero-delay event carrying
            # the same outcome so ordering stays deterministic.
            relay = Event(self.sim)
            relay.callbacks.append(self._resume)
            if result._ok:
                relay.succeed(result._value)
            else:
                relay.fail(result._value)
            self._waiting_on = relay
        else:
            result.callbacks.append(self._resume)
            self._waiting_on = result

    def _terminate(self, exc):
        if self.callbacks or isinstance(exc, StopSimulation):
            self.fail(exc)
        else:
            # Nobody is waiting on this process; surfacing the error at
            # the simulator level beats swallowing it.
            raise exc


class AllOf(Event):
    """Fires once every child event has fired; value is the list of values.

    Fails fast with the first child failure.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim)
        self._children = list(events)
        self._remaining = 0
        for event in self._children:
            if not isinstance(event, Event):
                raise SimulationError("AllOf requires events, got %r" % (event,))
        pending = [event for event in self._children if not event.processed]
        self._remaining = len(pending)
        if not self._remaining:
            self._finish()
        else:
            for event in pending:
                event.callbacks.append(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._remaining -= 1
        if not self._remaining:
            self._finish()

    def _finish(self):
        for event in self._children:
            if not event._ok:
                self.fail(event._value)
                return
        self.succeed([event._value for event in self._children])


class AnyOf(Event):
    """Fires with (index, value) of the first child event to fire."""

    __slots__ = ("_children",)

    def __init__(self, sim, events):
        super().__init__(sim)
        self._children = list(events)
        done = [e for e in self._children if e.processed]
        if done:
            first = done[0]
            index = self._children.index(first)
            if first._ok:
                self.succeed((index, first._value))
            else:
                self.fail(first._value)
            return
        for event in self._children:
            event.callbacks.append(self._child_done)

    def _child_done(self, event):
        if self.triggered:
            return
        index = self._children.index(event)
        if event._ok:
            self.succeed((index, event._value))
        else:
            self.fail(event._value)


class _Forever:
    """A run target that is never processed: :meth:`Simulator.run`."""

    __slots__ = ()

    _state = _PENDING


_FOREVER = _Forever()
_INFINITY = float("inf")


class Simulator:
    """The event loop: a clock, a ready queue and a heap of future timers.

    ``telemetry`` is the observability hub every layer reports into
    (:mod:`repro.telemetry`); when omitted a disabled hub is installed,
    whose calls all short-circuit — the simulation behaves identically
    with telemetry absent, disabled or enabled.
    """

    def __init__(self, telemetry=None):
        self.now = 0.0
        # Items due at ``now``, in trigger order, and future timers as
        # (instant, sequence, event); see the module docstring.
        self._ready = deque()
        self._heap = []
        self._sequence = count()
        self._stopped = False
        self._active_process = None
        # Determinism fingerprint: two runs of the same seeded world must
        # process the same number of events in the same order.  Replay
        # harnesses compare this cheap counter to detect divergence.
        self.processed_events = 0
        # Probe-sampling hook, called on every clock advance: armed only
        # when an enabled hub has probes or metrics registered.
        self._tick = None
        # Self-profiler seam: when a SimProfiler is attached the event
        # loop hands each item to it instead of processing it directly.
        self._profiler = None
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(enabled=False)
        self.telemetry._bind(self)
        if self.telemetry.profiler is not None:
            self.telemetry.profiler.attach(self)
        if self.telemetry.probes:
            self._arm_telemetry_tick()

    @property
    def active_process(self):
        """The process whose generator is currently executing, if any."""
        return self._active_process

    def _arm_telemetry_tick(self):
        tick = self.telemetry._on_clock_advance
        if self._profiler is not None:
            tick = self._profiler.timed_tick(tick)
        self._tick = tick

    # --- scheduling -----------------------------------------------------
    def _push(self, event, delay):
        """Queue a triggered ``event`` to be processed ``delay`` from now
        (``delay >= 0``; the callers check)."""
        now = self.now
        when = now + delay
        if when == now:
            self._ready.append(event)
        else:
            heapq.heappush(self._heap, (when, next(self._sequence), event))

    def schedule(self, delay, callback):
        """Run ``callback(sim)`` after ``delay``; returns the underlying event."""
        event = Event(self)
        event.callbacks.append(lambda _event: callback(self))
        event.succeed(delay=delay)
        return event

    # --- factories ------------------------------------------------------
    def event(self):
        return Event(self)

    def timeout(self, delay, value=None):
        return Timeout(self, delay, value)

    def process(self, generator):
        return Process(self, generator)

    def all_of(self, events):
        return AllOf(self, events)

    def any_of(self, events):
        return AnyOf(self, events)

    # --- execution ------------------------------------------------------
    def peek(self):
        """Time of the next event, or None when the queue is empty."""
        if self._ready:
            return self.now
        return self._heap[0][0] if self._heap else None

    def _advance(self):
        """Jump the clock to the earliest timer and move every timer due
        then to the ready queue, in heap order, before any of them runs."""
        heap = self._heap
        when = heap[0][0]
        if self._tick is not None:
            # Sample telemetry probes at every grid instant the clock is
            # about to jump over.  State is constant between events, so
            # this observes without adding events or perturbing anything.
            self._tick(when)
        self.now = when
        ready = self._ready
        while heap and heap[0][0] == when:
            ready.append(heapq.heappop(heap)[2])

    def _loop(self, until, target):
        """Process items until ``target`` is processed (True) or the queue
        holds nothing due by ``until`` (False)."""
        ready = self._ready
        heap = self._heap
        popleft = ready.popleft
        append = ready.append
        heappop = heapq.heappop
        profiler = self._profiler
        while target._state != _PROCESSED:
            if not ready:
                # _advance, inline
                if not heap:
                    return False
                when = heap[0][0]
                if when > until:
                    return False
                if self._tick is not None:
                    self._tick(when)
                self.now = when
                append(heappop(heap)[2])
                while heap and heap[0][0] == when:
                    append(heappop(heap)[2])
            item = popleft()
            self.processed_events += 1
            if profiler is not None:
                profiler.dispatch(item)
            elif item.__class__ is _Start:
                item.process._resume(item)
            else:
                # Event._process, inline
                item._state = _PROCESSED
                callbacks = item.callbacks
                item.callbacks = []
                for callback in callbacks:
                    callback(item)
        return True

    def step(self):
        """Process exactly one event (``SimulationError`` when none is
        queued)."""
        if not self._ready:
            if not self._heap:
                raise SimulationError("no event to process")
            self._advance()
        item = self._ready.popleft()
        self.processed_events += 1
        if self._profiler is None:
            item._process()
        else:
            self._profiler.dispatch(item)

    def run(self, until=None):
        """Run until the queue drains or the clock passes ``until``.

        A callback raising :class:`StopSimulation` halts the run at the
        current instant (used by the power-failure injector); the
        exception is absorbed and :meth:`run` returns normally.  An
        ``until`` before ``now`` is an error: the clock never runs back.
        """
        self._stopped = False
        if until is not None and until < self.now:
            raise SimulationError("cannot run back to %r from %r"
                                  % (until, self.now))
        try:
            self._loop(_INFINITY if until is None else until, _FOREVER)
        except StopSimulation:
            self._stopped = True
            return
        if until is not None and self.now < until:
            if self._tick is not None:
                self._tick(until)
            self.now = until

    def run_until(self, event):
        """Run until ``event`` is processed (for worlds with perpetual
        background processes that would keep :meth:`run` spinning).

        Raises if the queue drains first, or re-raises the event's
        exception when it failed.
        """
        self._stopped = False
        try:
            if not self._loop(_INFINITY, event):
                raise SimulationError("queue drained before the event fired")
        except StopSimulation:
            self._stopped = True
            return
        if not event._ok:
            raise event._value

    @property
    def stopped(self):
        """True when the last run() was halted by StopSimulation."""
        return self._stopped
