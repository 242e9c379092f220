"""Unit tests for ``Interrupt`` / ``Process.interrupt``.

The kernel has carried process interruption since the seed, but nothing
exercised it; the watchdog work leans on precise cancel/detach semantics,
so these tests pin the contract.
"""

import pytest

from repro.sim import Interrupt, SimulationError, Simulator


def test_interrupt_wakes_sleeper_with_cause():
    sim = Simulator()
    seen = []

    def sleeper(sim):
        try:
            yield sim.timeout(100)
        except Interrupt as exc:
            seen.append((sim.now, exc.cause))

    def poker(sim, victim):
        yield sim.timeout(3)
        victim.interrupt("wake up")

    victim = sim.process(sleeper(sim))
    sim.process(poker(sim, victim))
    sim.run()
    assert seen == [(3, "wake up")]


def test_interrupt_cause_defaults_to_none():
    exc = Interrupt()
    assert exc.cause is None


def test_interrupted_process_can_keep_running():
    """Catching the Interrupt leaves the process alive; it can wait again
    and the originally-awaited event must NOT resume it a second time."""
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield sim.timeout(10)
            trace.append("timeout")  # must not happen
        except Interrupt:
            trace.append(("interrupted", sim.now))
        yield sim.timeout(20)
        trace.append(("resumed", sim.now))

    def poker(sim, victim):
        yield sim.timeout(4)
        victim.interrupt()

    victim = sim.process(sleeper(sim))
    sim.process(poker(sim, victim))
    sim.run()
    # Interrupted at t=4, then slept 20 more: exactly one resumption each.
    assert trace == [("interrupted", 4), ("resumed", 24)]


def test_interrupt_finished_process_is_an_error():
    sim = Simulator()

    def quick(sim):
        yield sim.timeout(1)

    proc = sim.process(quick(sim))
    sim.run()
    assert not proc.is_alive
    with pytest.raises(SimulationError):
        proc.interrupt()


def test_uncaught_interrupt_fails_the_process_event():
    """A watcher waiting on the process sees the Interrupt as the failure
    cause instead of the simulation dying silently."""
    sim = Simulator()
    seen = []

    def sleeper(sim):
        yield sim.timeout(100)  # never catches

    def watcher(sim, victim):
        try:
            yield victim
        except Interrupt as exc:
            seen.append(exc.cause)

    victim = sim.process(sleeper(sim))
    sim.process(watcher(sim, victim))

    def poker(sim):
        yield sim.timeout(2)
        victim.interrupt("boom")

    sim.process(poker(sim))
    sim.run()
    assert seen == ["boom"]


def test_interrupt_before_first_resume():
    """Interrupting a process that has not yet been bootstrapped delivers
    the Interrupt at its first resumption."""
    sim = Simulator()
    seen = []

    def sleeper(sim):
        try:
            yield sim.timeout(50)
        except Interrupt:
            seen.append(sim.now)

    proc = sim.process(sleeper(sim))
    proc.interrupt()
    sim.run()
    assert seen == [0]


def test_interrupt_bare_delay_sleeper_wakes_once_at_interrupt_time():
    """A process sleeping on ``yield d`` wakes at the interrupt and never at
    the old deadline.  The abandoned calendar slot stays behind as an inert
    entry, as an abandoned ``sim.timeout(d)`` would."""
    sim = Simulator()
    trace = []

    def sleeper(sim):
        try:
            yield 10
            trace.append("deadline")  # must not happen
        except Interrupt as exc:
            trace.append(("interrupted", sim.now, exc.cause))
        yield 20
        trace.append(("resumed", sim.now))

    def poker(sim, victim):
        yield 4
        assert "sleeping" in repr(victim)
        victim.interrupt("poke")
        assert "sleeping" not in repr(victim)

    victim = sim.process(sleeper(sim))
    sim.process(poker(sim, victim))
    sim.run(until=9)
    assert trace == [("interrupted", 4, "poke")]
    assert sim.pending_live() == 2  # the inert slot at t=10 and the t=24 sleep
    sim.run()
    assert trace == [("interrupted", 4, "poke"), ("resumed", 24)]
    assert not victim.is_alive


def test_interrupt_after_boot_reaches_a_bare_delay_sleeper():
    """An interrupt issued before the first resumption lands after the boot;
    if the process went to sleep on a bare delay by then, the sleep ends."""
    sim = Simulator()
    seen = []

    def sleeper(sim):
        try:
            yield 50
        except Interrupt:
            seen.append(sim.now)
        yield 1
        seen.append(sim.now)

    proc = sim.process(sleeper(sim))
    proc.interrupt()
    sim.run()
    assert seen == [0, 1]
    assert sim.now == 50  # the inert slot still advances the clock
