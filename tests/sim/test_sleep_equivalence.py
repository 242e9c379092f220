"""A bare ``yield d`` is indistinguishable from ``yield sim.timeout(d)``.

The sleep path puts the process itself on the calendar instead of a
:class:`~repro.sim.core.Timeout`.  Both kernel disciplines share that path,
so the fast-vs-heap suite cannot referee it; this test does.  Hypothesis
generates small process programs that mix bare delays (0 included),
``Event.succeed``, ``AnyOf``/``AllOf``, sub-process joins, interrupts of
sleeping, waiting and not-yet-booted processes (self-interrupts too) and a
seeded jitter hook.  Each program runs with every sleep written ``yield d``
and again with every sleep written ``yield sim.timeout(d)``, on both
disciplines, and the runs must agree on the ``(now, process, step)`` log,
``events_processed``, ``pending_live()`` and the clock, both at a midway
``run(until=...)`` stop and at the end.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Simulator

DELAYS = st.sampled_from([0, 0, 1, 2, 3, 0.5, 7])
N_EVENTS = 3
N_PROCS = 3

_leaf_step = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("succeed"), st.integers(0, N_EVENTS - 1), DELAYS),
    st.tuples(st.just("any"), DELAYS, st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("all"), DELAYS, DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, N_PROCS - 1)),
)
_child = st.lists(_leaf_step, min_size=1, max_size=4)
_step = st.one_of(
    _leaf_step,
    st.tuples(st.just("sleep"), DELAYS),  # weight the subject of the test
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("join"), _child),
    st.tuples(st.just("spawn_interrupt"), _child),
)
PROGRAMS = st.lists(st.lists(_step, min_size=1, max_size=8), min_size=1, max_size=N_PROCS)


def _run(program, fast, bare, jitter_seed, until):
    sim = Simulator(fast_path=fast)
    if jitter_seed is not None:
        rng = random.Random(jitter_seed)
        sim.set_jitter(lambda d: d * (1 + rng.random()))
    events = [sim.event(name=f"e{i}") for i in range(N_EVENTS)]
    procs = []
    log = []

    def sleep(d):
        yield d if bare else sim.timeout(d)

    def do(step, me):
        kind = step[0]
        if kind == "sleep":
            yield from sleep(step[1])
        elif kind == "succeed":
            ev = events[step[1]]
            if not ev.triggered:
                ev.succeed(delay=step[2])
            yield from sleep(0)
        elif kind == "any":
            yield sim.any_of([sim.timeout(step[1]), events[step[2]]])
        elif kind == "all":
            yield sim.all_of([sim.timeout(step[1]), sim.timeout(step[2])])
        elif kind == "wait":
            yield events[step[1]]
        elif kind == "interrupt":
            target = procs[step[1] % len(procs)]
            if target.is_alive:
                target.interrupt(me)
            yield from sleep(1)
        elif kind == "join":
            yield spawn(step[1], f"{me}.{len(procs)}")
        elif kind == "spawn_interrupt":
            child = spawn(step[1], f"{me}.{len(procs)}")
            child.interrupt(me)  # before the child's first resumption
            yield from sleep(0)

    def body(steps, name):
        for i, step in enumerate(steps):
            try:
                yield from do(step, name)
                log.append((sim.now, name, i))
            except Interrupt as exc:
                log.append((sim.now, name, i, "interrupted by", exc.cause))

    def spawn(steps, name):
        proc = sim.process(body(steps, name), name=name)
        procs.append(proc)
        return proc

    def state():
        return (list(log), sim.now, sim.events_processed, sim.pending_live())

    for k, steps in enumerate(program):
        spawn(steps, f"p{k}")
    try:
        sim.run(until=until)
        midway = state()
        sim.run()
    except Interrupt as exc:
        # An interrupt can land after its target finished (it ran ahead of
        # the wake-up in the same instant); the kernel then raises it out
        # of run(), and both spellings must do so at the same point.
        return state(), ("escaped", exc.cause)
    return midway, state()


@settings(max_examples=150, deadline=None)
@given(
    program=PROGRAMS,
    jitter_seed=st.one_of(st.none(), st.integers(0, 2**16)),
    until=st.sampled_from([0, 1, 2.5, 4, 9]),
)
# p0.2 is interrupted twice at t=0 (by itself and by p1); the first
# interrupt finishes it, and the second lands on the finished process
# while p0 still watches it: it must escape run() as it does unwatched.
@example(
    program=[
        [("join", [("sleep", 0), ("sleep", 0), ("interrupt", 2)])],
        [("join", [("sleep", 0)]), ("interrupt", 2)],
    ],
    jitter_seed=None,
    until=0,
)
def test_bare_delay_equals_timeout(program, jitter_seed, until):
    runs = {
        (fast, bare): _run(program, fast, bare, jitter_seed, until)
        for fast in (True, False)
        for bare in (True, False)
    }
    reference = runs[True, False]
    for key, got in runs.items():
        assert got == reference, key


def test_program_exercises_every_interrupt_case():
    """A fixed program that interrupts a bare-delay sleeper, a process
    waiting on an event and a process that has not booted yet."""
    program = [
        [("sleep", 5), ("sleep", 2)],
        [("wait", 0), ("sleep", 1)],
        [("sleep", 1), ("interrupt", 0), ("interrupt", 1), ("spawn_interrupt", [("sleep", 3)])],
    ]
    runs = {
        (fast, bare): _run(program, fast, bare, None, until=2)
        for fast in (True, False)
        for bare in (True, False)
    }
    assert len({repr(r) for r in runs.values()}) == 1
    _, (log, now, events, live) = runs[True, True]
    assert (1, "p0", 0, "interrupted by", "p2") in log
    assert (2, "p1", 0, "interrupted by", "p2") in log
    assert (3, "p2.3", 0, "interrupted by", "p2") in log
    # The abandoned sleeps keep their calendar slots: p0's until t=5 and
    # the child's (booted, then slept 3 before the interrupt) until t=6.
    assert now == 6 and live == 0 and events == 19


def test_jittered_bare_sleeps_equal_timeouts():
    """Under a jitter hook a positive bare sleep goes to the calendar
    through ``Simulator._push``, as a ``Timeout``'s delay does: the hook
    sees the same delays in the same order, so both spellings land on the
    same jittered times."""
    program = [
        [("sleep", 3), ("sleep", 0.5), ("sleep", 0), ("sleep", 7)],
        [("sleep", 1), ("wait", 0), ("sleep", 2)],
        [("succeed", 0, 2), ("sleep", 3), ("sleep", 1)],
    ]
    runs = {
        (fast, bare): _run(program, fast, bare, jitter_seed=11, until=4)
        for fast in (True, False)
        for bare in (True, False)
    }
    assert len({repr(r) for r in runs.values()}) == 1
    # The hook did move the clock: without it the runs end elsewhere.
    assert runs[True, True][1][1] != _run(program, True, True, None, until=4)[1][1]
