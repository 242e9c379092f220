"""Discrete-event simulation kernel.

A minimal, fast, simpy-style kernel: a binary-heap event calendar plus
generator-coroutine processes.  One simulator time unit corresponds to one
processor/cache cycle throughout this package.

The kernel is deliberately small: events, timeouts, processes, and condition
events (:class:`AllOf` / :class:`AnyOf`).  Queueing abstractions live in
:mod:`repro.sim.resources`.

A process sleeps by yielding a bare non-negative delay (``yield 5``); that
puts the process itself on the calendar, so a sleep allocates no event.
``yield sim.timeout(5)`` waits the same way through a :class:`Timeout`
object, for callers that need one (a timer raced in an :class:`AnyOf`, a
callback delay).  Calendar entries carry one of three payloads, told apart
by ``_state`` (DESIGN.md §7.9): an :class:`Event`, a :class:`Process`
booting or sleeping, or a :class:`~repro.network.message.Message` in
flight, which the run loop hands to the simulator's interconnect.

Calendar
--------
Positive-delay entries go on a binary heap; zero-delay entries
(same-instant sequencing, the bulk of a cycle-level run) go on a plain
FIFO lane that bypasses the heap.  :meth:`Simulator.run` merges the two
by global ``(time, _seq)`` order and drains each instant in a batched
inner loop, so the processing order is *identical* to an all-heap
calendar (DESIGN.md §7).  That all-heap calendar, with the seed kernel's
``peek()``/``step()`` loop and ``run(max_events=...)``, is kept as a test
referee (``tests/sim/heap_referee.py``) that the differential suites and
the perf floors compare against.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def proc(sim):
...     yield 5
...     log.append(sim.now)
>>> _ = sim.process(proc(sim))
>>> sim.run()
>>> log
[5]
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush
from math import inf
from numbers import Real
from typing import Any, Callable, Deque, Generator, Iterable, Optional, Tuple

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
]


#: Lazily-canceled calendar entries tolerated before :meth:`Simulator.run`
#: compacts the calendar (only once they also outnumber live entries).
_COMPACT_MIN = 64


class SimulationError(Exception):
    """Raised for kernel-level misuse (double trigger, yielding junk, ...)."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


# Event states
_SLEEPING = -1  # a live process on the calendar: booting, or slept on ``yield d``
_PENDING = 0
_TRIGGERED = 1  # scheduled on the calendar, not yet processed
_PROCESSED = 2  # callbacks have run
_CANCELED = 3  # withdrawn from the calendar; popped and discarded silently
#: ``Message._state``: a message on the calendar is always in flight.
_IN_FLIGHT = 4


class Event:
    """A happening at a point in simulated time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them on
    the calendar and they become *triggered*; once the kernel pops them and
    runs their callbacks they are *processed*.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_state", "name", "sched_at")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = None
        self._ok: bool = True
        self._state = _PENDING
        self.name = name
        #: Simulated time this event was scheduled; stamped by ``_schedule``
        #: only while tracing is enabled (feeds event-latency trace rows).
        self.sched_at: float = -1.0

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled (succeed/fail called)."""
        return self._state >= _TRIGGERED

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._state == _PROCESSED

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (valid once triggered)."""
        if self._state <= _PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not 0 <= delay < inf:
            raise ValueError(f"invalid event delay {delay}")
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0) -> "Event":
        """Schedule this event to fire as a failure after ``delay``."""
        if self._state != _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if not 0 <= delay < inf:
            raise ValueError(f"invalid event delay {delay}")
        self._ok = False
        self._value = exception
        self._state = _TRIGGERED
        self.sim._schedule(self, delay)
        return self

    def cancel(self) -> None:
        """Withdraw a triggered-but-unprocessed event from the calendar.

        The heap entry is discarded lazily when popped: the clock does not
        advance to the canceled time and no callbacks run.  This is how
        retry timers and watchdog wake-ups are disarmed without leaving
        stray events that would inflate the run's completion time.

        Dead entries are tracked in :attr:`Simulator.canceled_pending`;
        once they outnumber the live calendar (and exceed a fixed floor)
        the calendar is compacted in place so cancel-heavy runs (retry
        timers under fault injection) do not drag a graveyard through
        every subsequent heap operation.
        """
        if self._state != _TRIGGERED:
            raise SimulationError(f"cannot cancel {self!r}: not triggered/unprocessed")
        self._state = _CANCELED
        sim = self.sim
        n = sim.canceled_pending = sim.canceled_pending + 1
        if n >= _COMPACT_MIN and n * 2 > sim._calendar_size():
            sim._compact()

    _STATE_NAMES = {
        _SLEEPING: "sleeping",
        _PENDING: "pending",
        _TRIGGERED: "triggered",
        _PROCESSED: "processed",
        _CANCELED: "canceled",
    }

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.name or hex(id(self))} "
            f"{self._STATE_NAMES[self._state]} t={self.sim.now}>"
        )


class Timeout(Event):
    """An event that fires after a fixed delay.  Created via ``sim.timeout``."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        # One comparison rejects negative, NaN and infinite delays alike
        # (NaN fails both bounds).
        if not 0 <= delay < inf:
            raise ValueError(f"invalid timeout delay {delay}")
        # Event.__init__ inlined: the base initializer would store
        # _ok/_value/_state only for this constructor to overwrite them.
        self.sim = sim
        self.callbacks = []
        self.name = ""
        self.delay = delay
        self._ok = True
        self._value = value
        self._state = _TRIGGERED
        self.sched_at = sim.now if sim._obs is not None else -1.0
        sim._push(self, delay)

    def __repr__(self) -> str:
        return (
            f"<Timeout delay={self.delay} {self._STATE_NAMES[self._state]} "
            f"t={self.sim.now}>"
        )


class Process(Event):
    """A generator coroutine driven by the kernel.

    The generator yields :class:`Event` instances, and the process resumes
    when the yielded event fires; or it yields a bare non-negative delay
    (``yield 5``) and sleeps that long with no event built.  The process
    *is itself an event* that succeeds with the generator's return value,
    so processes can wait on each other.

    While it boots or sleeps the process itself is the calendar entry's
    payload, in state ``_SLEEPING``; ``_waiting_on`` is ``None`` during the
    boot and the process itself during a sleep.
    """

    # ``__weakref__`` lets tests watch a finished process being freed.
    __slots__ = ("_generator", "_waiting_on", "_wake", "__weakref__")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        if not hasattr(generator, "send"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        # Event.__init__ inlined (one process is spawned per home-memory
        # transaction).
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._ok = True
        self._state = _SLEEPING
        self.name = name
        self.sched_at = -1.0
        self._generator = generator
        self._waiting_on: Optional[Event] = None
        #: ``self._resume`` bound once: every yield subscribes this same
        #: object instead of allocating a fresh bound method.  ``None``
        #: once the generator has finished.
        self._wake = self._resume
        # Boot: the process goes on the calendar at the current time.
        sim._push(self, 0)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._state <= _PENDING

    def __repr__(self) -> str:
        status = "alive" if self.is_alive else self._STATE_NAMES[self._state]
        waiting = ""
        target = self._waiting_on
        if target is self:
            waiting = " sleeping"
        elif target is not None:
            waiting = f" waiting_on={target.name or type(target).__name__}"
        return f"<Process {self.name or hex(id(self))} {status}{waiting} t={self.sim.now}>"

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        if self._waiting_on is not None:
            self._stop_waiting()
        wake = Event(self.sim)
        wake._ok = False
        wake._value = Interrupt(cause)
        wake._state = _TRIGGERED
        wake.callbacks.append(self._wake)
        self.sim._schedule(wake, 0)

    def close(self) -> None:
        """Retire a process that will never run again, so refcounting can
        free it: stop waiting, and drop the bound wake-up, which holds the
        process itself, and the callbacks of whatever waits on it.  For a
        hung machine's teardown; a finished process holds neither.
        Idempotent."""
        if self._waiting_on is not None:
            self._stop_waiting()
        self._wake = None
        self.callbacks = []

    # -- kernel internals --------------------------------------------------
    def _stop_waiting(self) -> None:
        """Detach from ``_waiting_on``.  A bare-delay sleep hands its
        calendar entry to an inert event (:meth:`Simulator._orphan`), just
        as an abandoned :class:`Timeout` stays behind; a boot keeps its
        entry (``_waiting_on`` is ``None`` then)."""
        target = self._waiting_on
        if target is self:
            self.sim._orphan(self)
            self._state = _PENDING
        else:
            try:
                target.callbacks.remove(self._wake)
            except ValueError:
                pass
        self._waiting_on = None

    def _resume(self, trigger: Event) -> None:
        """Run the generator to its next yield.  ``trigger`` is the event
        that fired, or the process itself when its boot or sleep is due."""
        waiting = self._waiting_on
        if waiting is not None:
            if trigger is not waiting:
                # Resumed out-of-band (an interrupt scheduled before the
                # process first ran): stop waiting on what the process
                # parked on, or it would re-resume the generator later.
                self._stop_waiting()
            self._waiting_on = None
        sim = self.sim
        obs = sim._obs
        if obs is not None and self.name:
            obs.instant(f"resume:{self.name}", "kernel", 0)
        sim._active_process = self
        generator = self._generator
        ok = trigger._ok
        value = trigger._value
        try:
            while True:
                if ok:
                    target = generator.send(value)
                else:
                    target = _throw(generator, value)
                cls = target.__class__
                if (cls is int or cls is float) and 0 < target < inf:
                    if sim._jitter is None:
                        # The hot sleep: Simulator._push inlined for a
                        # positive, finite, unjittered delay (stamp the
                        # seq, push on the heap).
                        seq = sim._seq = sim._seq + 1
                        heappush(sim._heap, (sim.now + target, seq, self))
                    else:
                        sim._push(self, target)
                    self._state = _SLEEPING
                    self._waiting_on = self
                    return
                if isinstance(target, Event):
                    if target._state == _PROCESSED:
                        # Already fired: resume immediately with its value.
                        ok = target._ok
                        value = target._value
                        continue
                    target.callbacks.append(self._wake)
                    self._waiting_on = target
                    return
                if cls is bool or not isinstance(target, Real):
                    raise SimulationError(
                        f"process {self.name or self!r} yielded non-event {target!r}"
                    )
                if not 0 <= target < inf:
                    # What sim.timeout(target) would have raised, at the yield.
                    ok = False
                    value = ValueError(f"invalid timeout delay {target}")
                    continue
                sim._push(self, target)
                self._state = _SLEEPING
                self._waiting_on = self
                return
        except StopIteration as stop:
            # The bound method is the process's only reference to itself:
            # dropping it lets refcounting free a finished process that
            # nothing else holds, without waiting for the cyclic GC.
            self._wake = None
            self.succeed(stop.value)
        except BaseException as exc:
            if isinstance(exc, SimulationError):
                raise
            self._wake = None
            # Uncaught exception in process body: fail the process event.  If
            # nobody is watching, re-raise so bugs do not vanish silently.
            # So too for an interrupt that lands after the process finished
            # in the same instant (thrown into the spent generator): the
            # process event is already triggered, watched or not.
            if self.callbacks and self._state <= _PENDING:
                # The traceback's first entry is this frame, whose locals
                # hold the process: the stored exception would keep its
                # own process alive until the cyclic GC ran.  Drop that
                # entry only; the generator's frames stay.
                exc.__traceback__ = exc.__traceback__.tb_next
                self.fail(exc)
            else:
                raise
        finally:
            sim._active_process = None


def _throw(generator: Generator, exc: BaseException) -> Any:
    """``generator.throw(exc)``, leaving ``exc``'s traceback as it was if
    the generator handles it (yields again or returns).

    The failed event and every other watcher share ``exc``.  The frames a
    handled throw adds to its traceback hold the handler's locals, the
    failed process typically, which holds ``exc``: a cycle only the cyclic
    GC frees.  An exception the generator lets through keeps them.
    """
    tb = exc.__traceback__
    try:
        target = generator.throw(exc)
    except StopIteration:
        exc.__traceback__ = tb
        raise
    exc.__traceback__ = tb
    return target


class _Condition(Event):
    """Base for AllOf/AnyOf: fires based on a set of sub-events.

    Sub-event completion is *counted* — ``_pending_count`` is the exact
    number of callbacks still outstanding, so each firing costs O(1)
    instead of rescanning every sub-event (the rescans made controllers'
    ack fan-ins quadratic in fan-out).  The count only includes sub-events
    that were not yet processed at construction; already-processed ones
    are reacted to in list order without ever driving it negative.

    A condition that triggers while sub-events remain outstanding detaches
    its callback from them (:meth:`_detach`), so long-lived events — an
    ack collector raced against retry timers, say — do not accumulate an
    unbounded list of dead callbacks over a long run.
    """

    __slots__ = ("_events", "_pending_count")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        for ev in self._events:
            if ev.sim is not sim:
                raise SimulationError("condition spans multiple simulators")
        self._pending_count = sum(
            1 for ev in self._events if ev._state != _PROCESSED
        )
        for ev in self._events:
            if ev._state == _PROCESSED:
                # React in list order: a processed failure fails the
                # condition immediately, and AnyOf fires on the first
                # processed success.
                self._on_processed(ev)
                if self._state != _PENDING:
                    return
        if self._pending_count == 0:
            # Every sub-event already processed (or no sub-events at all).
            self._on_all_ready()
            return
        check = self._check
        for ev in self._events:
            if ev._state != _PROCESSED:
                ev.callbacks.append(check)

    def _fail_from(self, ev: Event) -> None:
        self.fail(
            ev._value
            if isinstance(ev._value, BaseException)
            else SimulationError(str(ev._value))
        )

    def _detach(self) -> None:
        """Drop our callback from every sub-event that has not yet fired."""
        check = self._check
        for ev in self._events:
            if ev._state != _PROCESSED:
                try:
                    ev.callbacks.remove(check)
                except ValueError:
                    pass

    def _on_processed(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _on_all_ready(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def _check(self, ev: Event) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every sub-event has fired; value is the list of values."""

    __slots__ = ()

    def _on_processed(self, ev: Event) -> None:
        if not ev._ok:
            self._fail_from(ev)

    def _on_all_ready(self) -> None:
        self.succeed([e._value for e in self._events])

    def _check(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev._ok:
            self._fail_from(ev)
            self._detach()
            return
        self._pending_count -= 1
        if self._pending_count == 0:
            # Count exhausted <=> every sub-event processed: no rescan.
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first sub-event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _on_processed(self, ev: Event) -> None:
        if not ev._ok:
            self._fail_from(ev)
        else:
            self.succeed((ev, ev._value))

    def _on_all_ready(self) -> None:
        # Only reachable with an empty sub-event list (any processed
        # sub-event already decided the condition): preserved seed-kernel
        # behavior is to succeed with an empty list.
        self.succeed([])

    def _check(self, ev: Event) -> None:
        if self._state != _PENDING:
            return
        if not ev._ok:
            self._fail_from(ev)
        else:
            self.succeed((ev, ev._value))
        self._detach()


class Simulator:
    """The event calendar and execution loop.

    The calendar is split in two:

    * ``_heap`` — binary heap of ``(time, seq, event)`` for positive-delay
      events;
    * ``_lane`` — FIFO deque of ``(seq, event)`` for zero-delay events.
      Every lane entry is due at the *current* time: zero-delay events are
      appended at ``now`` and the run loop drains everything due at ``now``
      (lane and heap) before advancing the clock, so the invariant holds.

    Both structures carry the same global ``_seq`` stamp, and the pop rule
    ("take the heap head only when it is due now *and* has the smaller
    seq") reproduces the exact ``(time, seq)`` total order of an all-heap
    calendar: runs are bit-identical to the all-heap referee in
    ``tests/sim/heap_referee.py``.

    An entry's payload is an :class:`Event` (its callbacks run), a
    :class:`Process` in state ``_SLEEPING`` (resumed directly), or a
    message in state ``_IN_FLIGHT`` (passed to :attr:`_arrive`).  Each
    counts once in :attr:`events_processed`.
    """

    __slots__ = (
        "_heap",
        "_lane",
        "_seq",
        "now",
        "_active_process",
        "_jitter",
        "events_processed",
        "canceled_pending",
        "_trace_kernel",
        "_obs",
        "_arrive",
    )

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        #: Zero-delay FIFO lane; every entry is due at :attr:`now`.
        self._lane: Deque[Tuple[int, Event]] = deque()
        self._seq = 0
        #: Current simulated time (cycles).
        self.now: float = 0
        self._active_process: Optional[Process] = None
        self._jitter: Optional[Callable[[float], float]] = None
        #: Monotonic count of processed (non-canceled) events; the progress
        #: watchdog compares successive readings to detect quiescence.
        self.events_processed: int = 0
        #: Calendar entries canceled but not yet popped/compacted away.
        #: ``_calendar_size() - canceled_pending`` is the number of *live*
        #: scheduled events — the watchdog and ``HangDiagnosis`` use it to
        #: tell a quiet calendar from one stuffed with dead retry timers.
        self.canceled_pending: int = 0
        #: Cached ``obs is not None and obs.enabled_for("kernel")``: the run
        #: loop's per-event gate.  Recomputed by :meth:`refresh_trace_flags`
        #: (on bus install / category change) and at every ``run()`` entry.
        self._trace_kernel: bool = False
        #: Trace bus (:class:`repro.obs.bus.TraceBus`) or ``None``; the
        #: machine installs it via :meth:`set_obs`.  Hot paths test
        #: ``is not None`` only.
        self._obs = None
        #: Arrival hook of the simulator's one interconnect, which sets it
        #: (:class:`repro.network.topology.Interconnect`): the run loop
        #: passes each in-flight message payload to it when it is due.
        self._arrive: Optional[Callable[[Any], None]] = None

    def close(self) -> None:
        """Drop what points back into the model built on this simulator:
        the calendar's leftover entries, the interconnect's arrival hook
        and the trace bus (which holds the simulator).  The clock and
        :attr:`events_processed` stay readable; idempotent.
        """
        self._heap = []
        self._lane = deque()
        self.canceled_pending = 0
        self._arrive = None
        self.set_obs(None)

    # -- observability ------------------------------------------------------
    def set_obs(self, bus) -> None:
        """Install (or clear) the trace bus and refresh the cached gates."""
        self._obs = bus
        self.refresh_trace_flags()

    def refresh_trace_flags(self) -> None:
        """Recompute the cached per-category trace gates.

        Called when the bus is installed/removed or its category set
        changes (:meth:`repro.obs.bus.TraceBus.set_categories`), and
        defensively at every ``run()`` entry — so the per-event check in
        the hot loop is a single attribute load instead of two loads plus
        a method call.
        """
        obs = self._obs
        self._trace_kernel = obs is not None and obs.enabled_for("kernel")

    def _calendar_size(self) -> int:
        """Total calendar entries, live or canceled, heap and lane."""
        return len(self._heap) + len(self._lane)

    def pending_live(self) -> int:
        """Number of scheduled-and-not-canceled calendar entries."""
        return self._calendar_size() - self.canceled_pending

    # -- latency jitter -----------------------------------------------------
    def set_jitter(self, fn: Optional[Callable[[float], float]]) -> None:
        """Install (or clear) a latency-jitter hook.

        ``fn(delay) -> delay'`` is applied to every *positive* scheduling
        delay; zero-delay events (same-instant sequencing) are never
        perturbed.  The schedule-fuzzing harness installs a deterministic
        seeded hook here to explore alternative event interleavings; a
        correct protocol/consistency-model combination must behave
        identically (in outcome, not in timing) under any jitter.
        """
        self._jitter = fn

    # -- factory helpers ----------------------------------------------------
    def event(self, name: str = "") -> Event:
        """Create a fresh pending event."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    # -- scheduling ----------------------------------------------------------
    def _push(self, payload: Any, delay: float) -> None:
        """Put ``payload`` on the calendar ``delay`` from now: the one
        scheduling rule.  Jitter positive delays, reject a non-finite
        result, stamp the global seq, then lane or heap.  Timeouts, event
        triggers, process boots and message arrivals all come here;
        :meth:`Process._resume` inlines its positive, unjittered case for
        the sleep path."""
        if delay > 0 and self._jitter is not None:
            delay = self._jitter(delay)
            if not 0 <= delay < inf:
                raise SimulationError(f"jitter hook produced an invalid delay {delay}")
        seq = self._seq = self._seq + 1
        if delay > 0:
            heappush(self._heap, (self.now + delay, seq, payload))
        else:
            # Zero-delay: due at the current instant, strictly after every
            # already-scheduled entry due now (larger seq) — plain FIFO.
            self._lane.append((seq, payload))

    def _schedule(self, event: Event, delay: float) -> None:
        if self._obs is not None:
            event.sched_at = self.now
        self._push(event, delay)

    def _orphan(self, payload: Any) -> None:
        """Hand ``payload``'s calendar entry to an inert anonymous event.

        The entry keeps its ``(time, seq)`` slot, so it still advances the
        clock and counts once in :attr:`events_processed` when popped, as
        the abandoned :class:`Timeout` of a ``yield sim.timeout(d)`` does.
        A linear scan: only :meth:`Process.interrupt` gets here.
        """
        stand_in = Event(self)
        stand_in._state = _TRIGGERED
        heap = self._heap
        for i, (t, seq, p) in enumerate(heap):
            if p is payload:
                heap[i] = (t, seq, stand_in)
                return
        lane = self._lane
        for i, (seq, p) in enumerate(lane):
            if p is payload:
                lane[i] = (seq, stand_in)
                return
        raise SimulationError(f"{payload!r} has no calendar entry")

    def _compact(self) -> None:
        """Drop canceled entries from the calendar, in place.

        In place matters: :meth:`run` holds local references to ``_heap``
        and ``_lane``, and compaction can fire mid-run from an event
        callback (via :meth:`Event.cancel`).
        """
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2]._state != _CANCELED]
        heapq.heapify(heap)
        lane = self._lane
        if lane:
            live = [entry for entry in lane if entry[1]._state != _CANCELED]
            if len(live) != len(lane):
                lane.clear()
                lane.extend(live)
        self.canceled_pending = 0

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the next entry is due past
        ``until``.

        ``until`` is inclusive: events scheduled exactly at ``until`` run.
        The clock only advances to processed events' times — it is never
        artificially bumped to ``until`` (completion time stays meaningful).
        The loop body inlines one event's processing (no per-event method
        call).  ``heap`` and ``lane`` stay valid across :meth:`_compact`
        because it mutates both in place.  The obs kernel gate is the
        cached ``_trace_kernel`` flag.
        """
        self.refresh_trace_flags()
        if until is not None and self.now > until:
            # Only reachable when the caller passes an ``until`` that is
            # already past: lane entries due at ``now`` must not run.
            return
        # Two levels: the inner loop drains *everything due at the current
        # instant* (lane entries plus heap entries landing exactly at
        # ``now``), re-entering the merged pop comparison only while both
        # sides hold due work; the outer loop advances the clock.
        # Same-instant callbacks can only append lane entries or
        # strictly-future heap entries (zero-delay never touches the heap),
        # so the instant drain is exhaustive.
        heap = self._heap
        lane = self._lane
        heappop = heapq.heappop
        popleft = lane.popleft  # lane is only ever mutated in place
        while True:
            now = self.now
            while True:
                if lane:
                    if heap and heap[0][0] <= now and heap[0][1] < lane[0][0]:
                        event = heappop(heap)[2]
                    else:
                        event = popleft()[1]
                elif heap and heap[0][0] <= now:
                    event = heappop(heap)[2]
                else:
                    break
                # Payload kinds in report frequency order (DESIGN §7.9).
                state = event._state
                if state == _SLEEPING:
                    # A process booting or waking from ``yield d``.
                    self.events_processed += 1
                    event._state = _PENDING
                    event._resume(event)
                elif state == _IN_FLIGHT:
                    self.events_processed += 1
                    self._arrive(event)
                elif state == _TRIGGERED:
                    event._state = _PROCESSED
                    self.events_processed += 1
                    if self._trace_kernel and event.name:
                        lat = now - event.sched_at if event.sched_at >= 0 else 0.0
                        self._obs.instant(event.name, "kernel", 0, args={"lat": lat})
                    cbs = event.callbacks
                    if len(cbs) == 1:
                        # Single subscriber (the overwhelmingly common case
                        # — a process resume or condition check): direct
                        # call, no list swap.  Clearing first keeps the
                        # "callbacks consumed at processing" contract.
                        cb = cbs[0]
                        cbs.clear()
                        cb(event)
                    else:
                        event.callbacks = []
                        for cb in cbs:
                            cb(event)
                else:
                    self.canceled_pending -= 1
            if not heap:
                return
            head = heap[0]
            if head[2]._state == _CANCELED:
                heappop(heap)
                self.canceled_pending -= 1
                continue
            t = head[0]
            if until is not None and t > until:
                return
            # Advance the clock only; the instant drain pops the entry
            # (and everything else landing at ``t``) next pass.
            self.now = t
