"""Hang diagnosis over the interconnect's per-channel FIFO state.

Delay spikes act before the FIFO resequencer, so a spiked message leaves
its later same-channel successors *held* until it lands.  Stopping a
spiky WBI run mid-flight gives a machine with messages in flight and held
on several channels at once.  The expected dicts pin key order:
``in_flight`` lists channels in first-send order, ``held`` in the order
each channel last started holding (at t=1400, ``0->2`` has held since
before t=1350 and ``3->0``, though first used earlier, started holding
after it).  The first pins, on spike seed 0, were recorded on the
implementation that kept three tuple-keyed channel dicts.  These were
recorded with spike seed 4 once a WBI home stopped re-executing a retry
that reaches it while it probes the requester (DESIGN §5): the seed-0
run then no longer held two channels at once.
"""

import pytest

from repro.faults.diagnosis import diagnose_machine
from repro.faults.plan import FaultSpec
from repro.system.config import MachineConfig
from repro.system.machine import Machine


def _spiky_counter_run(until):
    cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2, seed=0)
    machine = Machine(cfg, protocol="wbi", faults=FaultSpec(spike_prob=0.3, spike_cycles=200, seed=4))
    ctr = machine.alloc_word()
    machine.poke(ctr, 0)

    def worker(proc):
        for _ in range(6):
            value = yield from proc.shared_read(ctr)
            yield from proc.shared_write(ctr, value + 1)

    for t in range(4):
        machine.spawn(worker(machine.processor(t, consistency="sc")), name=f"w{t}")
    machine.sim.run(until=until)
    return machine


@pytest.mark.parametrize(
    "until, in_flight, held, holds",
    [
        (1350, {"0->2": 2, "0->3": 2}, {"0->2": 1, "0->3": 1}, 6),
        (1400, {"3->0": 2, "0->2": 2}, {"0->2": 1, "3->0": 1}, 7),
    ],
)
def test_in_flight_and_held_match_recorded(until, in_flight, held, holds):
    machine = _spiky_counter_run(until)
    assert machine.net.stats.counters["fifo_holds"] == holds
    d = diagnose_machine(machine, "probe").to_dict()
    assert list(d["in_flight"].items()) == list(in_flight.items())
    assert list(d["held"].items()) == list(held.items())
    text = diagnose_machine(machine, "probe").format()
    for chan, n in held.items():
        assert f"channel {chan}: {n} held for FIFO order" in text
