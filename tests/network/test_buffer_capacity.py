"""Regression: which topologies honor ``NetworkParams.buffer_capacity``.

Only the buffered Omega variant models finite per-port buffers with
backpressure; every other topology assumes infinite buffering (the paper's
own assumption) and ignores the parameter.  ``MachineConfig`` therefore
rejects a capacity on any other network; these tests pin the behavior per
topology when a network is built directly.
"""

import pytest

from repro.network import (
    BufferedOmegaNetwork,
    BusNetwork,
    CrossbarNetwork,
    MeshNetwork,
    Message,
    MessageType,
    NetworkParams,
    OmegaNetwork,
)
from repro.sim import Simulator
from tests.network.sink import sink_table


def _victim_delivery_times(cls, capacity):
    """Hot-spot at node 0 plus one 'victim' control message per source to a
    non-hot destination; returns the victims' sorted delivery times.

    Finite buffers show up as *tree saturation*: the hot-spot backlog fills
    upstream ports and delays traffic that merely shares them.  With
    infinite buffers the victims sail past the backlog.
    """
    sim = Simulator()
    net = cls(sim, 8, NetworkParams(buffer_capacity=capacity))
    victim_times = []

    def handler(msg):
        if msg.info.get("victim"):
            victim_times.append(sim.now)

    for i in range(8):
        net.attach(i, sink_table(handler))
    for src in range(1, 8):
        for _ in range(8):
            net.send(Message(src, 0, MessageType.DATA_BLOCK))
    for src in range(1, 8):
        dst = (src % 7) + 1
        net.send(Message(src, dst if dst != src else 7, MessageType.READ_MISS, info={"victim": True}))
    sim.run()
    assert len(victim_times) == 7
    return sorted(victim_times)


@pytest.mark.parametrize(
    "cls", [OmegaNetwork, BusNetwork, CrossbarNetwork, MeshNetwork], ids=lambda c: c.__name__
)
def test_unbuffered_topologies_ignore_capacity(cls):
    """Infinite-buffer models deliver identically whether or not a (tiny)
    capacity is configured — the setting is ignored."""
    assert _victim_delivery_times(cls, capacity=1) == _victim_delivery_times(cls, capacity=None)


def test_buffered_omega_backpressures_on_capacity():
    """The buffered Omega's finite ports must actually saturate: the last
    victim arrives strictly later under capacity 1 than with infinite
    buffers (tree saturation, the point of the buffered ablation)."""
    tight = _victim_delivery_times(BufferedOmegaNetwork, capacity=1)
    loose = _victim_delivery_times(BufferedOmegaNetwork, capacity=None)
    assert tight[-1] > loose[-1]
