"""A finished machine is freed by refcount, not by the cyclic GC.

Every call below builds a whole machine, returns data and drops the
machine; :meth:`repro.system.machine.Machine.close` cuts its reference
cycles first.  Each call runs once to warm up (a first call may import
modules or fill caches, which leave cycles of their own), then again with
the collector disabled: ``gc.collect()`` must then find nothing.  A
fuzz campaign or a report sweep builds thousands of machines, so one
cycle left here costs a collector pass over every live object.
"""

import gc

import pytest

from repro.experiments import conformance_point, fig_point
from repro.faults.plan import FaultSpec
from repro.scenarios.runner import scenario_point
from repro.verify.fuzz import Atom, Program, run_program
from repro.workloads.traffic import traffic_point

#: Two rounds (so a barrier), a lock, an RMW and a publish/consume pair.
PROGRAM = Program(
    n_threads=3,
    rounds=(
        (
            (Atom("publish", 1), Atom("lock_inc", 0)),
            (Atom("rmw_inc"), Atom("compute", 5)),
            (Atom("lock_inc", 0), Atom("private", 2)),
        ),
        (
            (Atom("rmw_inc"),),
            (Atom("consume", 0), Atom("lock_inc", 1)),
            (Atom("publish", 1),),
        ),
    ),
)


def _cyclic_garbage(call) -> int:
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize("protocol", ["primitives", "wbi", "writeupdate"])
def test_run_program_leaves_no_cycles(protocol):
    def call():
        assert run_program(PROGRAM, protocol=protocol, model="sc", seed=4, jitter=0.5) is None

    assert _cyclic_garbage(call) == 0


@pytest.mark.parametrize("protocol", ["primitives", "wbi", "writeupdate"])
def test_faulty_run_program_leaves_no_cycles(protocol):
    spec = FaultSpec(drop_prob=0.05, dup_prob=0.05, spike_prob=0.05, seed=7)

    def call():
        assert run_program(PROGRAM, protocol=protocol, model="bc", seed=2, faults=spec) is None

    assert _cyclic_garbage(call) == 0


@pytest.mark.parametrize("model, scheme", [("queue", "tts"), ("sync", "cbl")])
def test_fig_point_leaves_no_cycles(model, scheme):
    assert _cyclic_garbage(lambda: fig_point(4, model, scheme, "medium")) == 0


def test_traffic_point_leaves_no_cycles():
    point = dict(rate=0.4, horizon=1_200.0, n_clients=50_000, n_keys=64, n_nodes=4, seed=9)
    assert _cyclic_garbage(lambda: traffic_point(**point)) == 0


@pytest.mark.parametrize("name", ["hot-block-ping-pong", "denial-of-progress"])
def test_scenario_point_leaves_no_cycles(name):
    def call():
        assert scenario_point(name, seed=1, attack=True)["hang"] is None

    assert _cyclic_garbage(call) == 0


def test_conformance_point_leaves_no_cycles():
    assert _cyclic_garbage(lambda: conformance_point("mp", "primitives", "bc", 2, [0.0, 2.0])) == 0
