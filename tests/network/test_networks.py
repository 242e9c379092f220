"""Unit tests for the Omega, bus, crossbar and mesh interconnects."""

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
from repro.network.routing import omega_route
from repro.sim import SimulationError, Simulator
from tests.network.sink import sink_table


def make_net(cls, n=8, **kw):
    sim = Simulator()
    net = cls(sim, n, NetworkParams(**kw))
    inbox = {i: [] for i in range(n)}
    for i in range(n):
        net.attach(i, sink_table(lambda m, i=i: inbox[i].append((net.sim.now, m))))
    return sim, net, inbox


# ------------------------------------------------------------------ generic


@pytest.mark.parametrize("cls", [OmegaNetwork, BufferedOmegaNetwork, BusNetwork, CrossbarNetwork])
def test_message_delivered_to_destination(cls):
    sim, net, inbox = make_net(cls)
    net.send(Message(0, 5, MessageType.READ_MISS))
    sim.run()
    assert len(inbox[5]) == 1
    assert all(not inbox[i] for i in range(8) if i != 5)


@pytest.mark.parametrize("cls", [OmegaNetwork, BufferedOmegaNetwork, BusNetwork, CrossbarNetwork])
def test_local_message_bypasses_network(cls):
    sim, net, inbox = make_net(cls, local_delivery=2)
    net.send(Message(3, 3, MessageType.READ_MISS))
    sim.run()
    t, _ = inbox[3][0]
    assert t == 2
    assert net.stats.counters["local_messages"] == 1


@pytest.mark.parametrize("cls", [OmegaNetwork, BusNetwork, CrossbarNetwork])
def test_stats_count_messages_and_flits(cls):
    sim, net, inbox = make_net(cls)
    net.send(Message(0, 1, MessageType.READ_MISS))  # 1 flit
    net.send(Message(0, 2, MessageType.DATA_BLOCK))  # 1+4 flits
    sim.run()
    assert net.message_count == 2
    assert net.stats.counters["flits"] == 6
    assert net.count_of(MessageType.READ_MISS) == 1


def test_attach_twice_rejected():
    sim = Simulator()
    net = OmegaNetwork(sim, 4)
    net.attach(0, sink_table(lambda m: None))
    with pytest.raises(ValueError):
        net.attach(0, sink_table(lambda m: None))


def test_send_out_of_range_rejected():
    sim = Simulator()
    net = OmegaNetwork(sim, 4)
    with pytest.raises(ValueError):
        net.send(Message(0, 9, MessageType.READ_MISS))


def test_unattached_destination_raises_at_delivery():
    sim = Simulator()
    net = OmegaNetwork(sim, 4)
    net.send(Message(0, 1, MessageType.READ_MISS))
    with pytest.raises(RuntimeError):
        sim.run()


# ------------------------------------------------------------------ omega


def test_omega_uncontended_latency_is_stages_times_service():
    sim, net, inbox = make_net(OmegaNetwork, n=16, switch_cycle=2)
    net.send(Message(0, 9, MessageType.READ_MISS))  # 1 flit, 4 stages
    sim.run()
    t, _ = inbox[9][0]
    assert t == 4 * 2 * 1
    assert net.uncontended_latency(0, 9, 1) == 8


def test_omega_block_message_slower_than_control():
    sim, net, inbox = make_net(OmegaNetwork, n=8)
    net.send(Message(0, 5, MessageType.READ_MISS))
    net.send(Message(1, 6, MessageType.DATA_BLOCK))
    sim.run()
    t_ctrl = inbox[5][0][0]
    t_block = inbox[6][0][0]
    assert t_block == t_ctrl * 5  # 5 flits vs 1 flit


def test_omega_contention_serializes_same_wire():
    """Two messages to the same destination must serialize at the last stage
    at least; delivery times differ."""
    sim, net, inbox = make_net(OmegaNetwork, n=8)
    net.send(Message(0, 5, MessageType.READ_MISS))
    net.send(Message(1, 5, MessageType.READ_MISS))
    sim.run()
    times = sorted(t for t, _ in inbox[5])
    assert times[1] > times[0]


def test_omega_disjoint_paths_no_interference():
    """A permutation that the Omega network can route without conflict
    delivers everything at the uncontended latency (identity permutation)."""
    n = 8
    sim, net, inbox = make_net(OmegaNetwork, n=n)
    for i in range(n):
        net.send(Message(i, i, MessageType.READ_MISS))  # local: trivially disjoint
    sim.run()
    for i in range(n):
        assert inbox[i][0][0] == net.params.local_delivery


def test_omega_hotspot_latency_grows_with_offered_load():
    def hotspot_latency(n_senders):
        sim, net, inbox = make_net(OmegaNetwork, n=16)
        for s in range(n_senders):
            net.send(Message(s, 0, MessageType.READ_MISS))
        sim.run()
        return max(t for t, _ in inbox[0])

    assert hotspot_latency(8) > hotspot_latency(2)


def test_omega_queueing_stat_nonzero_under_contention():
    sim, net, inbox = make_net(OmegaNetwork, n=8)
    for s in range(4):
        net.send(Message(s, 7, MessageType.DATA_BLOCK))
    sim.run()
    assert net.stats.tally("queueing").max > 0


def test_omega_wire_utilization_bounded():
    sim, net, inbox = make_net(OmegaNetwork, n=8)
    for s in range(8):
        for d in range(8):
            if s != d:
                net.send(Message(s, d, MessageType.READ_MISS))
    sim.run()
    u = net.wire_utilization()
    assert 0 < u <= 1.0


def test_omega_wire_utilization_exact_all_pairs():
    """56 one-flit messages cross 3 stages each (168 wire-cycles) in 12
    cycles over 3 x 8 wires; the value was recorded when every wire kept
    its own busy total."""
    sim, net, inbox = make_net(OmegaNetwork, n=8)
    for s in range(8):
        for d in range(8):
            if s != d:
                net.send(Message(s, d, MessageType.READ_MISS))
    sim.run()
    assert sim.now == 12
    assert net.wire_utilization() == 0.5833333333333334
    assert net.wire_utilization(until=24) == 168 / (24 * 3 * 8)


@pytest.mark.parametrize("cls", [OmegaNetwork, MeshNetwork])
def test_wire_utilization_without_links(cls):
    # A one-node Omega or mesh has no links; all its traffic is local.
    sim, net, inbox = make_net(cls, n=1)
    net.send(Message(0, 0, MessageType.READ_MISS))
    sim.run()
    assert len(inbox[0]) == 1
    assert net.wire_utilization(until=10) == 0.0


def test_omega_routes_are_shared_by_networks_of_one_size():
    """Two networks of the same size share each channel's route tuple, so
    routes are built once per process; the public ``omega_route`` still
    returns a fresh list per call, since callers may mutate it."""
    _, a, _ = make_net(OmegaNetwork, n=8)
    _, b, _ = make_net(OmegaNetwork, n=8)
    for net in (a, b):
        net.send(Message(3, 6, MessageType.READ_MISS))
    route = a._chans[3][6].route
    assert route is b._chans[3][6].route
    assert route == tuple(stage * 8 + w for stage, w in enumerate(omega_route(3, 6, 8)))
    assert omega_route(3, 6, 8) is not omega_route(3, 6, 8)


def test_one_interconnect_per_simulator():
    sim = Simulator()
    OmegaNetwork(sim, 4)
    with pytest.raises(SimulationError, match="one interconnect"):
        BusNetwork(sim, 4)


def test_omega_wire_utilization_exact_wbi_machine():
    """An n=8 WBI counter run; value recorded with per-wire busy totals."""
    from repro.system.config import MachineConfig
    from repro.system.machine import Machine

    machine = Machine(MachineConfig(n_nodes=8, cache_blocks=64, cache_assoc=2, seed=5), protocol="wbi")
    ctr = machine.alloc_word()
    machine.poke(ctr, 0)

    def worker(proc):
        for _ in range(5):
            value = yield from proc.shared_read(ctr)
            yield from proc.shared_write(ctr, value + 1)

    for t in range(8):
        machine.spawn(worker(machine.processor(t, consistency="sc")), name=f"w{t}")
    machine.run_all()
    assert isinstance(machine.net, OmegaNetwork)
    assert (machine.sim.now, machine.net.message_count) == (1493, 300)
    assert machine.net.wire_utilization() == 0.05408573342263898


def test_omega_rejects_non_power_of_two():
    sim = Simulator()
    with pytest.raises(ValueError):
        OmegaNetwork(sim, 6)


# ------------------------------------------------------------------ buffered omega


def test_buffered_omega_matches_unbuffered_when_uncontended():
    sim1, net1, inbox1 = make_net(OmegaNetwork, n=8, switch_cycle=3)
    sim2, net2, inbox2 = make_net(BufferedOmegaNetwork, n=8, switch_cycle=3)
    net1.send(Message(2, 6, MessageType.DATA_BLOCK))
    net2.send(Message(2, 6, MessageType.DATA_BLOCK))
    sim1.run()
    sim2.run()
    assert inbox1[6][0][0] == inbox2[6][0][0]


def test_buffered_omega_delivers_under_heavy_load():
    sim, net, inbox = make_net(BufferedOmegaNetwork, n=8, buffer_capacity=1)
    for s in range(8):
        for d in range(8):
            if s != d:
                net.send(Message(s, d, MessageType.READ_MISS))
    sim.run()
    total = sum(len(v) for v in inbox.values())
    assert total == 8 * 7


def test_buffered_omega_finite_buffers_slower_than_infinite():
    """With tiny buffers and a hotspot, backpressure must not lose or
    duplicate messages, and the finite network is no faster."""

    def run(cls, cap):
        sim, net, inbox = make_net(cls, n=16, buffer_capacity=cap)
        for s in range(1, 16):
            net.send(Message(s, 0, MessageType.DATA_BLOCK))
        sim.run()
        return max(t for t, _ in inbox[0]), sum(len(v) for v in inbox.values())

    t_inf, n_inf = run(OmegaNetwork, None)
    t_fin, n_fin = run(BufferedOmegaNetwork, 1)
    assert n_inf == n_fin == 15
    assert t_fin >= t_inf


# ------------------------------------------------------------------ bus


def test_bus_serializes_everything():
    sim, net, inbox = make_net(BusNetwork, n=4)
    net.send(Message(0, 1, MessageType.READ_MISS))
    net.send(Message(2, 3, MessageType.READ_MISS))
    sim.run()
    assert inbox[1][0][0] == 1
    assert inbox[3][0][0] == 2  # waits for the first transfer


def test_bus_utilization():
    sim, net, inbox = make_net(BusNetwork, n=4)
    net.send(Message(0, 1, MessageType.DATA_BLOCK))
    sim.run()
    assert net.wire_utilization() == pytest.approx(1.0)


# ------------------------------------------------------------------ crossbar


def test_crossbar_different_destinations_parallel():
    sim, net, inbox = make_net(CrossbarNetwork, n=4)
    net.send(Message(0, 1, MessageType.READ_MISS))
    net.send(Message(2, 3, MessageType.READ_MISS))
    sim.run()
    assert inbox[1][0][0] == 1
    assert inbox[3][0][0] == 1  # no interference


def test_crossbar_same_destination_serializes():
    sim, net, inbox = make_net(CrossbarNetwork, n=4)
    net.send(Message(0, 3, MessageType.READ_MISS))
    net.send(Message(1, 3, MessageType.READ_MISS))
    sim.run()
    times = sorted(t for t, _ in inbox[3])
    assert times == [1, 2]


def test_crossbar_faster_than_bus_under_spread_load():
    def total_time(cls):
        sim, net, inbox = make_net(cls, n=8)
        for i in range(0, 8, 2):
            net.send(Message(i, i + 1, MessageType.DATA_BLOCK))
        sim.run()
        return max(max(t for t, _ in v) for v in inbox.values() if v)

    assert total_time(CrossbarNetwork) < total_time(BusNetwork)
