"""Unit tests for the discrete-event kernel."""

import math

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationError,
    Simulator,
)
from tests.sim.heap_referee import HeapSimulator


def test_empty_run_leaves_time_at_zero():
    sim = Simulator()
    sim.run()
    assert sim.now == 0


def test_run_until_does_not_fabricate_time():
    """The clock tracks processed events only; an empty run stays at 0 so
    completion times remain meaningful."""
    sim = Simulator()
    sim.run(until=100)
    assert sim.now == 0


def test_timeout_fires_at_delay():
    sim = Simulator()
    seen = []

    def p(sim):
        yield sim.timeout(7)
        seen.append(sim.now)

    sim.process(p(sim))
    sim.run()
    assert seen == [7]


def test_timeout_zero_fires_same_time():
    sim = Simulator()
    seen = []

    def p(sim):
        yield sim.timeout(0)
        seen.append(sim.now)

    sim.process(p(sim))
    sim.run()
    assert seen == [0]


def _at_ten(sim):
    """Advance the clock to 10 (where a negative delay would travel back)."""
    sim.timeout(10)
    sim.run()
    assert sim.now == 10
    return sim.event()


#: Every way to put an event on the calendar with an explicit delay.
SCHEDULERS = {
    "timeout": lambda sim, d: sim.timeout(d),
    "succeed": lambda sim, d: _at_ten(sim).succeed(delay=d),
    "fail": lambda sim, d: _at_ten(sim).fail(RuntimeError("boom"), delay=d),
}


@pytest.mark.parametrize("how", sorted(SCHEDULERS))
def test_negative_timeout_rejected(how):
    """A negative delay is refused before anything is scheduled: on the heap
    discipline it would run an event in the past, on the fast one at now."""
    sim = Simulator()
    with pytest.raises(ValueError):
        SCHEDULERS[how](sim, -4)
    assert sim.pending_live() == 0


@pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("how", sorted(SCHEDULERS))
def test_non_finite_delay_rejected(how, delay):
    """NaN passes every ``delay < 0`` test (and would fire at t=0, ahead of
    a 1-cycle timeout); inf would set the clock to inf."""
    sim = Simulator()
    with pytest.raises(ValueError):
        SCHEDULERS[how](sim, delay)
    assert sim.pending_live() == 0


def test_rejected_succeed_leaves_event_pending():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(ValueError):
        ev.succeed(delay=math.nan)
    assert not ev.triggered
    ev.succeed(delay=2)
    sim.run()
    assert ev.processed and sim.now == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("how", ["timeout", "succeed"])
def test_invalid_jitter_output_rejected(how, bad):
    """A jitter hook returning NaN would run every positive-delay event at
    t=0; the kernel refuses its output on both scheduling paths."""
    sim = Simulator()
    sim.set_jitter(lambda d: bad)
    with pytest.raises(SimulationError):
        if how == "timeout":
            sim.timeout(3)
        else:
            sim.event().succeed(delay=3)
    assert sim.pending_live() == 0


def test_timeout_carries_value():
    sim = Simulator()
    got = []

    def p(sim):
        v = yield sim.timeout(3, value="payload")
        got.append(v)

    sim.process(p(sim))
    sim.run()
    assert got == ["payload"]


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []

    def p(sim, delay, tag):
        yield sim.timeout(delay)
        order.append(tag)

    sim.process(p(sim, 30, "c"))
    sim.process(p(sim, 10, "a"))
    sim.process(p(sim, 20, "b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fifo_by_schedule_order():
    sim = Simulator()
    order = []

    def p(sim, tag):
        yield sim.timeout(5)
        order.append(tag)

    for tag in ("first", "second", "third"):
        sim.process(p(sim, tag))
    sim.run()
    assert order == ["first", "second", "third"]


def test_process_waits_on_manual_event():
    sim = Simulator()
    ev = sim.event()
    got = []

    def waiter(sim):
        v = yield ev
        got.append((sim.now, v))

    def firer(sim):
        yield sim.timeout(12)
        ev.succeed("go")

    sim.process(waiter(sim))
    sim.process(firer(sim))
    sim.run()
    assert got == [(12, "go")]


def test_event_double_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    ev.succeed()
    with pytest.raises(SimulationError):
        ev.succeed()


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(TypeError):
        ev.fail("not an exception")


def test_process_return_value_propagates():
    sim = Simulator()
    results = []

    def child(sim):
        yield sim.timeout(4)
        return 42

    def parent(sim):
        v = yield sim.process(child(sim))
        results.append((sim.now, v))

    sim.process(parent(sim))
    sim.run()
    assert results == [(4, 42)]


def test_waiting_on_already_processed_event_resumes_immediately():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")
    got = []

    def p(sim):
        yield sim.timeout(10)
        v = yield ev  # fired long ago
        got.append((sim.now, v))

    sim.process(p(sim))
    sim.run()
    assert got == [(10, "early")]


def test_failed_event_raises_inside_process():
    sim = Simulator()
    ev = sim.event()
    caught = []

    def p(sim):
        try:
            yield ev
        except RuntimeError as e:
            caught.append(str(e))

    sim.process(p(sim))
    ev.fail(RuntimeError("boom"))
    sim.run()
    assert caught == ["boom"]


def test_unwatched_process_exception_propagates_to_run():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(1)
        raise ValueError("bug in process")

    sim.process(p(sim))
    with pytest.raises(ValueError, match="bug in process"):
        sim.run()


def test_watched_process_exception_fails_the_process_event():
    sim = Simulator()
    caught = []

    def child(sim):
        yield sim.timeout(1)
        raise ValueError("child failed")

    def parent(sim):
        try:
            yield sim.process(child(sim))
        except ValueError as e:
            caught.append(str(e))

    sim.process(parent(sim))
    sim.run()
    assert caught == ["child failed"]


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.process(lambda: None)


def test_yield_non_event_raises_simulation_error():
    """A bare real number is a sleep; anything else that is not an event
    (bool included, though it is an ``int``) is kernel misuse."""
    for junk in (None, "5", object(), True):
        sim = Simulator()

        def p(sim):
            yield junk

        sim.process(p(sim))
        with pytest.raises(SimulationError, match="yielded non-event"):
            sim.run()


@pytest.mark.parametrize("bad", [-1, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_invalid_bare_delay_raises_value_error_at_the_yield(bad):
    """``yield d`` with a delay ``sim.timeout(d)`` would refuse throws the
    same ValueError into the generator, where the process can catch it."""
    sim = Simulator()
    seen = []

    def p(sim):
        try:
            yield bad
        except ValueError as exc:
            seen.append((sim.now, str(exc)))
        yield 2
        seen.append(sim.now)

    sim.process(p(sim))
    sim.run()
    assert seen == [(0, f"invalid timeout delay {bad}"), 2]


def test_bare_delay_sleeps_like_a_timeout():
    sim = Simulator()
    log = []

    def p(sim, name, delays):
        for d in delays:
            got = yield d
            log.append((sim.now, name, got))

    sim.process(p(sim, "a", [3, 0, 2.5]))
    sim.process(p(sim, "b", [0, 3]))
    sim.run()
    # At t=3 b's sleep (scheduled at t=0) precedes a's zero-delay one.
    assert log == [
        (0, "b", None), (3, "a", None), (3, "b", None), (3, "a", None), (5.5, "a", None),
    ]
    # Two boots, five sleeps and two process completions.
    assert sim.events_processed == 9


def test_interrupt_wakes_process_with_cause():
    sim = Simulator()
    log = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
            log.append("slept")
        except Interrupt as i:
            log.append(("interrupted", sim.now, i.cause))

    def interrupter(sim, victim):
        yield sim.timeout(5)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(interrupter(sim, victim))
    sim.run()
    assert log == [("interrupted", 5, "wake up")]


def test_interrupt_finished_process_raises():
    sim = Simulator()

    def p(sim):
        yield sim.timeout(1)

    proc = sim.process(p(sim))
    sim.run()
    assert not proc.is_alive
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_all_of_waits_for_every_event():
    sim = Simulator()
    got = []

    def p(sim):
        values = yield AllOf(sim, [sim.timeout(3, "a"), sim.timeout(9, "b"), sim.timeout(6, "c")])
        got.append((sim.now, values))

    sim.process(p(sim))
    sim.run()
    assert got == [(9, ["a", "b", "c"])]


def test_all_of_empty_fires_immediately():
    sim = Simulator()
    got = []

    def p(sim):
        v = yield AllOf(sim, [])
        got.append((sim.now, v))

    sim.process(p(sim))
    sim.run()
    assert got == [(0, [])]


def test_any_of_fires_on_first():
    sim = Simulator()
    got = []

    def p(sim):
        ev, v = yield AnyOf(sim, [sim.timeout(30, "slow"), sim.timeout(2, "fast")])
        got.append((sim.now, v))

    sim.process(p(sim))
    sim.run()
    assert got == [(2, "fast")]


def test_peek_reports_next_event_time():
    sim = HeapSimulator()
    sim.timeout(17)
    assert sim.peek() == 17
    sim.run()
    assert sim.peek() == float("inf")


def test_run_until_is_inclusive():
    sim = Simulator()
    seen = []

    def p(sim):
        yield sim.timeout(10)
        seen.append(sim.now)

    sim.process(p(sim))
    sim.run(until=10)
    assert seen == [10]


def test_run_until_excludes_later_events():
    sim = Simulator()
    seen = []

    def p(sim):
        yield sim.timeout(11)
        seen.append(sim.now)

    sim.process(p(sim))
    sim.run(until=10)
    assert seen == []
    assert sim.now == 0  # no event at or before 10 was processed
    sim.run()
    assert seen == [11]


def test_max_events_bounds_work():
    sim = HeapSimulator()
    for _ in range(10):
        sim.timeout(1)
    sim.run(max_events=3)
    assert sim.pending_live() == 7


def test_nested_process_chain_time_accumulates():
    sim = Simulator()
    trace = []

    def level3(sim):
        yield sim.timeout(1)
        return "deep"

    def level2(sim):
        v = yield sim.process(level3(sim))
        yield sim.timeout(2)
        return v + "-2"

    def level1(sim):
        v = yield sim.process(level2(sim))
        trace.append((sim.now, v))

    sim.process(level1(sim))
    sim.run()
    assert trace == [(3, "deep-2")]


def test_active_process_visible_during_execution():
    sim = Simulator()
    seen = []

    def p(sim):
        seen.append(sim.active_process)
        yield sim.timeout(1)

    proc = sim.process(p(sim))
    sim.run()
    assert seen == [proc]
    assert sim.active_process is None


def test_many_processes_complete():
    sim = Simulator()
    done = []

    def p(sim, i):
        yield sim.timeout(i % 7)
        done.append(i)

    for i in range(500):
        sim.process(p(sim, i))
    sim.run()
    assert len(done) == 500
