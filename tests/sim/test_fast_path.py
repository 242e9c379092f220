"""Unit tests for the kernel's run loop: the zero-delay lane, lazy
cancellation + compaction, ``pending_live``, the O(1) condition fixes and
bounded runs.  Each runs on the production :class:`Simulator` and on the
all-heap referee (``tests/sim/heap_referee.py``); ``peek()``, ``step()``
and ``run(max_events=...)`` exist on the referee only, and the production
loop's cases compare its ``run(until=...)`` stop against them.

The differential suite (``test_kernel_equivalence.py``) pins whole-machine
equivalence; these tests pin each mechanism in isolation so a regression
points at the broken primitive instead of "traces diverged somewhere".
"""

import pytest

from repro.sim.core import (
    _COMPACT_MIN,
    AllOf,
    AnyOf,
    Event,
    SimulationError,
    Simulator,
)
from tests.sim.heap_referee import HeapSimulator


def both_loops(fn):
    return pytest.mark.parametrize("cls", [HeapSimulator, Simulator], ids=["heap", "fast"])(fn)


# ------------------------------------------------------------- lane ordering


@both_loops
def test_zero_delay_events_fifo_across_containers(cls):
    """Zero-delay events interleaved with due heap events must fire in
    global schedule (seq) order, not container order."""
    sim = cls()
    order = []

    def make(tag):
        def cb(ev):
            order.append(tag)
        return cb

    # Alternate: a future event due at t=1, then zero-delay chains from it.
    def driver(sim):
        yield sim.timeout(1)
        for i in range(4):
            ev = sim.timeout(0)
            ev.callbacks.append(make(f"z{i}"))
            ev2 = sim.timeout(0)
            ev2.callbacks.append(make(f"y{i}"))
        yield sim.timeout(0)

    sim.process(driver(sim))
    sim.run()
    assert order == ["z0", "y0", "z1", "y1", "z2", "y2", "z3", "y3"]


@both_loops
def test_same_instant_heap_and_lane_interleave_by_seq(cls):
    """An event scheduled with delay d that lands at ``now`` once the clock
    reaches it must still order by seq against zero-delay events scheduled
    at that instant: the merged pop rule compares (time, seq) exactly."""
    sim = cls()
    order = []

    def cb(tag):
        def _cb(ev):
            order.append(tag)
        return _cb

    def driver(sim):
        # At t=0 schedule A for t=2 (heap).  At t=2 schedule zero-delay B
        # *after* A fired and zero-delay C from inside A's callback.
        a = sim.timeout(2)
        a.callbacks.append(cb("A"))
        yield sim.timeout(2)
        b = sim.timeout(0)
        b.callbacks.append(cb("B"))
        c = sim.timeout(0)
        c.callbacks.append(cb("C"))
        yield sim.timeout(0)

    sim.process(driver(sim))
    sim.run()
    assert order == ["A", "B", "C"]


@both_loops
def test_run_until_with_pending_zero_delay_work(cls):
    """``run(until=now)`` must still drain lane entries due exactly at
    ``until`` (inclusive), and a second run with until < now returns
    without touching the calendar."""
    sim = cls()
    fired = []
    sim.timeout(5).callbacks.append(lambda ev: fired.append("t5"))
    sim.run(until=5)
    assert fired == ["t5"] and sim.now == 5
    sim.timeout(0).callbacks.append(lambda ev: fired.append("z"))
    sim.run(until=3)  # until already in the past: nothing may fire
    assert fired == ["t5"]
    sim.run(until=5)
    assert fired == ["t5", "z"]


# ------------------------------------------------ cancellation + compaction


@both_loops
def test_cancel_tracks_canceled_pending_and_pending_live(cls):
    sim = cls()
    evs = [sim.timeout(10 + i) for i in range(8)]
    assert sim.pending_live() == 8
    for ev in evs[:3]:
        ev.cancel()
    assert sim.canceled_pending == 3
    assert sim.pending_live() == 5
    sim.run()
    # Canceled entries were discarded without running callbacks.
    assert sim.canceled_pending == 0
    assert sim.pending_live() == 0
    assert sim.events_processed == 5


@both_loops
def test_peek_skips_canceled_heads(cls):
    """A canceled head is discarded without moving the clock: the
    referee's ``peek()`` reports the next live time, and a run until
    before that time stops on both loops with the dead head gone."""
    sim = cls()
    early = sim.timeout(1)
    sim.timeout(7)
    early.cancel()
    if cls is HeapSimulator:
        assert sim.peek() == 7
    sim.run(until=5)
    assert sim.now == 0 and sim.pending_live() == 1
    assert sim.canceled_pending == 0


@both_loops
def test_mass_cancel_triggers_compaction(cls):
    """Canceling more than half the calendar (past the floor) compacts it
    in place; the survivors still fire, in order."""
    sim = cls()
    n = _COMPACT_MIN * 4
    doomed = [sim.timeout(100 + i) for i in range(n)]
    keep = sim.timeout(500)
    fired = []
    keep.callbacks.append(lambda ev: fired.append(sim.now))
    for ev in doomed:
        ev.cancel()
    # Compaction ran (possibly several times as the threshold re-arms):
    # most of the graveyard is physically gone, not merely marked dead.
    assert sim.pending_live() == 1
    assert len(sim._heap) + len(sim._lane) < n // 2
    assert sim.canceled_pending < _COMPACT_MIN
    sim.run()
    assert fired == [500]


@both_loops
def test_cancel_zero_delay_event(cls):
    """A zero-delay entry (on the lane, in production) can be canceled too."""
    sim = cls()

    def driver(sim):
        yield sim.timeout(1)
        z = sim.timeout(0)
        z.callbacks.append(lambda ev: fired.append("z"))
        z.cancel()
        yield sim.timeout(1)

    fired = []
    sim.process(driver(sim))
    sim.run()
    assert fired == []
    assert sim.canceled_pending == 0


@both_loops
def test_step_returns_false_for_canceled(cls):
    """A dead entry is consumed without moving the clock or counting as
    processed: the referee's ``step()`` returns False for it, and the
    production loop discards it on the way to the next live entry."""
    sim = cls()
    ev = sim.timeout(1)
    sim.timeout(2)
    ev.cancel()
    if cls is HeapSimulator:
        assert sim.step() is False
        assert (sim.now, sim.canceled_pending) == (0, 0)
        assert sim.step() is True
    else:
        sim.run(until=1)
        assert (sim.now, sim.canceled_pending) == (0, 0)
        sim.run(until=2)
    assert (sim.now, sim.events_processed) == (2, 1)


def test_cancel_requires_triggered_state():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.cancel()


# ------------------------------------------------------------ condition fixes


@both_loops
def test_all_of_with_already_processed_events(cls):
    """Building an AllOf over events that already ran must fire immediately
    instead of waiting forever (the pending count may never go negative)."""
    sim = cls()
    a, b = sim.timeout(1), sim.timeout(2)
    sim.run()
    done = []

    def waiter(sim):
        yield AllOf(sim, [a, b])
        done.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert done == [2]


@both_loops
def test_all_of_mixed_processed_and_pending(cls):
    sim = cls()
    a = sim.timeout(1)
    sim.run()
    b = sim.timeout(3)
    done = []

    def waiter(sim):
        yield AllOf(sim, [a, b])
        done.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert done == [4]  # b scheduled at now=1, fires at 1 + 3


@both_loops
def test_any_of_with_already_processed_event_fires_immediately(cls):
    sim = cls()
    a = sim.timeout(1)
    sim.run()
    b = sim.timeout(100)
    got = []

    def waiter(sim):
        res = yield AnyOf(sim, [a, b])
        got.append(res)

    sim.process(waiter(sim))
    sim.run(until=10)
    assert got and a in got[0]
    assert b not in got[0]


@both_loops
def test_any_of_detaches_check_from_losers(cls):
    """Once AnyOf decides, remaining sub-events must not retain the
    condition's _check callback — the O(n) rescan this PR removed also
    leaked callbacks onto every loser."""
    sim = cls()
    a, b, c = sim.timeout(1), sim.timeout(5), sim.timeout(9)
    cond = AnyOf(sim, [a, b, c])
    sim.run(until=2)
    assert cond.processed
    assert all(cb.__name__ != "_check" for cb in b.callbacks)
    assert all(cb.__name__ != "_check" for cb in c.callbacks)
    sim.run()  # losers fire without re-poking the decided condition


@both_loops
def test_all_of_failure_detaches_from_remaining(cls):
    sim = cls()
    a = Event(sim)
    b = sim.timeout(50)
    cond = AllOf(sim, [a, b])
    boom = RuntimeError("boom")
    a.fail(boom)
    sim.run(until=1)
    assert cond.processed and not cond.ok and cond._value is boom
    assert all(cb.__name__ != "_check" for cb in b.callbacks)
    sim.run()


@both_loops
def test_all_of_large_fanin_completes(cls):
    """await_acks-style fan-in: one AllOf over many events stays linear and
    correct (each sub-event is visited exactly once)."""
    sim = cls()
    events = [sim.timeout(i % 7) for i in range(200)]
    done = []

    def waiter(sim):
        yield AllOf(sim, events)
        done.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert done == [6]


# --------------------------------------------------------------- containers


@both_loops
def test_only_the_production_loop_uses_the_lane(cls):
    """Zero-delay entries go on the lane in production and on the heap in
    the referee; positive delays go on the heap in both."""
    sim = cls()
    sim.timeout(0)
    sim.timeout(3)
    assert (len(sim._lane), len(sim._heap)) == ((0, 2) if cls is HeapSimulator else (1, 1))


# ----------------------------------------------------- bounded-run accounting


def _cancel_heavy(sim):
    """25 live timeouts at 0.5, 1.0, ..., 12.5 interleaved with 25 canceled
    ones (plus a canceled same-instant entry), the regime where bounded-run
    accounting diverged: a loop that counts *popped* entries instead of
    *processed* events stops early on this calendar."""
    victims = [sim.timeout(0)]
    for i in range(25):
        sim.timeout(0.5 * i + 0.5)
        victims.append(sim.timeout(0.5 * i + 0.7))
    for v in victims:
        v.cancel()


def _run_bounded(sim, n):
    """Stop ``_cancel_heavy``'s calendar after its ``n``-th processed
    event: the referee by its event budget, the production loop, which
    has none, by running until that event's time."""
    if type(sim) is HeapSimulator:
        sim.run(max_events=n)
    else:
        sim.run(until=0.5 * min(n, 25))


@both_loops
@pytest.mark.parametrize("max_events", [1, 7, 25, 100])
def test_max_events_accounting(max_events, cls):
    """Both loops stop after the *same* processed event: canceled entries
    never consume the referee's budget, so the stop is fixed by the live
    schedule alone."""
    sim = cls()
    _cancel_heavy(sim)
    _run_bounded(sim, max_events)
    done = min(max_events, 25)
    assert sim.events_processed == done
    assert sim.now == 0.5 * done
    assert sim.pending_live() == 25 - done


@both_loops
def test_max_events_resume_continues_identically(cls):
    """A bounded run followed by a drain ends in the same state as one
    unbounded run."""
    sim = cls()
    _cancel_heavy(sim)
    _run_bounded(sim, 10)
    sim.run()
    assert (sim.events_processed, sim.now) == (25, 12.5)
    assert sim.pending_live() == 0


@both_loops
def test_jitter_applies_only_to_positive_delays(cls):
    """Zero-delay scheduling must bypass the jitter hook entirely, or the
    lane invariant (entries due exactly at ``now``) would break."""
    sim = cls()
    seen = []

    def jit(d):
        seen.append(d)
        return d * 2

    sim.set_jitter(jit)
    fired = []

    def driver(sim):
        yield sim.timeout(4)  # jittered -> 8
        z = sim.timeout(0)    # NOT jittered
        z.callbacks.append(lambda ev: fired.append(sim.now))
        yield sim.timeout(0)

    sim.process(driver(sim))
    sim.run()
    assert seen == [4]
    assert fired == [8]
