"""Unit tests for the kernel fast path: the zero-delay lane, lazy
cancellation + compaction, ``pending_live``, the O(1) condition fixes,
bounded-run accounting and the ``REPRO_KERNEL`` selector.

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


def both_disciplines(fn):
    return pytest.mark.parametrize("fast", [False, True], ids=["heap", "fast"])(fn)


# ------------------------------------------------------------- lane ordering


@both_disciplines
def test_zero_delay_events_fifo_across_containers(fast):
    """Zero-delay events interleaved with due heap events must fire in
    global schedule (seq) order, not container order."""
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_same_instant_heap_and_lane_interleave_by_seq(fast):
    """An event scheduled with delay d that lands at ``now`` once the clock
    reaches it must still order by seq against zero-delay events scheduled
    at that instant: the merged pop rule compares (time, seq) exactly."""
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_run_until_with_pending_zero_delay_work(fast):
    """``run(until=now)`` must still drain lane entries due exactly at
    ``until`` (inclusive), and a second run with until < now returns
    without touching the calendar."""
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_cancel_tracks_canceled_pending_and_pending_live(fast):
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_peek_skips_canceled_heads(fast):
    sim = Simulator(fast_path=fast)
    early = sim.timeout(1)
    sim.timeout(7)
    early.cancel()
    assert sim.peek() == 7
    assert sim.canceled_pending == 0  # peek discarded the dead head


@both_disciplines
def test_mass_cancel_triggers_compaction(fast):
    """Canceling more than half the calendar (past the floor) compacts it
    in place; the survivors still fire, in order."""
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_cancel_zero_delay_event(fast):
    """A zero-delay (lane, on the fast path) entry can be canceled too."""
    sim = Simulator(fast_path=fast)

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


@both_disciplines
def test_step_returns_false_for_canceled(fast):
    sim = Simulator(fast_path=fast)
    ev = sim.timeout(1)
    sim.timeout(2)
    ev.cancel()
    assert sim.step() is False  # dead entry consumed, clock unmoved
    assert sim.now == 0
    assert sim.step() is True
    assert sim.now == 2


def test_cancel_requires_triggered_state():
    sim = Simulator()
    ev = Event(sim)
    with pytest.raises(SimulationError):
        ev.cancel()


# ------------------------------------------------------------ condition fixes


@both_disciplines
def test_all_of_with_already_processed_events(fast):
    """Building an AllOf over events that already ran must fire immediately
    instead of waiting forever (the pending count may never go negative)."""
    sim = Simulator(fast_path=fast)
    a, b = sim.timeout(1), sim.timeout(2)
    sim.run()
    done = []

    def waiter(sim):
        yield AllOf(sim, [a, b])
        done.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert done == [2]


@both_disciplines
def test_all_of_mixed_processed_and_pending(fast):
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_any_of_with_already_processed_event_fires_immediately(fast):
    sim = Simulator(fast_path=fast)
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


@both_disciplines
def test_any_of_detaches_check_from_losers(fast):
    """Once AnyOf decides, remaining sub-events must not retain the
    condition's _check callback — the O(n) rescan this PR removed also
    leaked callbacks onto every loser."""
    sim = Simulator(fast_path=fast)
    a, b, c = sim.timeout(1), sim.timeout(5), sim.timeout(9)
    cond = AnyOf(sim, [a, b, c])
    sim.run(until=2)
    assert cond.processed
    assert all(cb.__name__ != "_check" for cb in b.callbacks)
    assert all(cb.__name__ != "_check" for cb in c.callbacks)
    sim.run()  # losers fire without re-poking the decided condition


@both_disciplines
def test_all_of_failure_detaches_from_remaining(fast):
    sim = Simulator(fast_path=fast)
    a = Event(sim)
    b = sim.timeout(50)
    cond = AllOf(sim, [a, b])
    boom = RuntimeError("boom")
    a.fail(boom)
    sim.run(until=1)
    assert cond.processed and not cond.ok and cond._value is boom
    assert all(cb.__name__ != "_check" for cb in b.callbacks)
    sim.run()


@both_disciplines
def test_all_of_large_fanin_completes(fast):
    """await_acks-style fan-in: one AllOf over many events stays linear and
    correct (each sub-event is visited exactly once)."""
    sim = Simulator(fast_path=fast)
    events = [sim.timeout(i % 7) for i in range(200)]
    done = []

    def waiter(sim):
        yield AllOf(sim, events)
        done.append(sim.now)

    sim.process(waiter(sim))
    sim.run()
    assert done == [6]


# --------------------------------------------------------------- misc API


def test_fast_path_property_and_default():
    assert Simulator(fast_path=True).fast_path is True
    assert Simulator(fast_path=False).fast_path is False


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


@both_disciplines
@pytest.mark.parametrize("max_events", [1, 7, 25, 100])
def test_max_events_accounting(max_events, fast):
    """Both disciplines stop after the *same* processed event: canceled
    entries never consume budget, so the stop is fixed by the live
    schedule alone."""
    sim = Simulator(fast_path=fast)
    _cancel_heavy(sim)
    sim.run(max_events=max_events)
    done = min(max_events, 25)
    assert sim.events_processed == done
    assert sim.now == 0.5 * done
    assert sim.pending_live() == 25 - done


@both_disciplines
def test_max_events_resume_continues_identically(fast):
    """A bounded run followed by a drain ends in the same state as one
    unbounded run."""
    sim = Simulator(fast_path=fast)
    _cancel_heavy(sim)
    sim.run(max_events=10)
    sim.run()
    assert (sim.events_processed, sim.now) == (25, 12.5)
    assert sim.pending_live() == 0


@both_disciplines
def test_jitter_applies_only_to_positive_delays(fast):
    """Zero-delay scheduling must bypass the jitter hook entirely, or the
    lane invariant (entries due exactly at ``now``) would break."""
    sim = Simulator(fast_path=fast)
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
