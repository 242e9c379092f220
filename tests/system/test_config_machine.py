"""Unit tests for MachineConfig, Machine wiring, and RunMetrics."""

import pytest

from repro import Machine, MachineConfig, RunMetrics
from repro.network import BusNetwork, CrossbarNetwork, MeshNetwork, OmegaNetwork


# ----------------------------------------------------------------- config


def test_defaults_match_table4():
    cfg = MachineConfig()
    assert cfg.words_per_block == 4
    assert cfg.cache_blocks == 1024
    assert cfg.memory_cycle == 4
    assert cfg.network == "omega"
    assert cfg.write_buffer_capacity is None  # infinite, as the paper assumes
    assert cfg.buffer_capacity is None


def test_n_nodes_must_be_power_of_two():
    with pytest.raises(ValueError):
        MachineConfig(n_nodes=6)
    with pytest.raises(ValueError):
        MachineConfig(n_nodes=0)


def test_cache_geometry_validated():
    with pytest.raises(ValueError):
        MachineConfig(cache_blocks=10, cache_assoc=4)  # not divisible
    with pytest.raises(ValueError):
        MachineConfig(cache_blocks=12, cache_assoc=2)  # sets not power of 2


def test_timing_validated():
    with pytest.raises(ValueError):
        MachineConfig(memory_cycle=0)
    with pytest.raises(ValueError):
        MachineConfig(switch_cycle=-1)


def test_network_name_validated():
    with pytest.raises(ValueError):
        MachineConfig(network="hypercube")


@pytest.mark.parametrize("network", ["omega", "bus", "crossbar", "mesh"])
def test_buffer_capacity_needs_buffered_omega(network):
    # Only the buffered Omega has finite switch buffers; elsewhere the
    # setting would be ignored, so it is refused.
    with pytest.raises(ValueError, match="omega-buffered"):
        MachineConfig(network=network, buffer_capacity=4)
    assert MachineConfig(network=network).buffer_capacity is None


def test_buffer_capacity_must_be_positive():
    assert MachineConfig(network="omega-buffered", buffer_capacity=1).buffer_capacity == 1
    for cap in (0, -2):
        with pytest.raises(ValueError, match="positive"):
            MachineConfig(network="omega-buffered", buffer_capacity=cap)


def test_ru_propagation_validated():
    with pytest.raises(ValueError):
        MachineConfig(ru_propagation="telepathy")


def test_cache_sets_property():
    assert MachineConfig(cache_blocks=1024, cache_assoc=4).cache_sets == 256


# ----------------------------------------------------------------- machine


def test_unknown_protocol_rejected():
    with pytest.raises(ValueError, match="protocol"):
        Machine(MachineConfig(n_nodes=2), protocol="mesi")


@pytest.mark.parametrize(
    "name,cls",
    [("omega", OmegaNetwork), ("bus", BusNetwork), ("crossbar", CrossbarNetwork), ("mesh", MeshNetwork)],
)
def test_network_selection(name, cls):
    m = Machine(MachineConfig(n_nodes=4, network=name), protocol="wbi")
    assert isinstance(m.net, cls)


def test_write_buffer_only_on_primitives():
    assert Machine(MachineConfig(n_nodes=2), protocol="wbi").nodes[0].write_buffer is None
    assert (
        Machine(MachineConfig(n_nodes=2), protocol="primitives").nodes[0].write_buffer
        is not None
    )


def test_alloc_block_sequential_and_distinct():
    m = Machine(MachineConfig(n_nodes=4), protocol="wbi")
    a = m.alloc_block(3)
    b = m.alloc_block()
    assert b == a + 3
    with pytest.raises(ValueError):
        m.alloc_block(0)


def test_alloc_word_gets_own_block():
    m = Machine(MachineConfig(n_nodes=4), protocol="wbi")
    w1, w2 = m.alloc_word(), m.alloc_word()
    assert m.amap.block_of(w1) != m.amap.block_of(w2)


def test_poke_peek_roundtrip():
    m = Machine(MachineConfig(n_nodes=4), protocol="wbi")
    addr = m.alloc_word()
    m.poke(addr, 12345)
    assert m.peek_memory(addr) == 12345


def test_run_all_raises_on_deadlock():
    m = Machine(MachineConfig(n_nodes=2), protocol="wbi")

    def stuck(p):
        yield p.sim.event()  # never fires

    m.spawn(stuck(m.processor(0)))
    with pytest.raises(RuntimeError, match="still running"):
        m.run_all(max_cycles=100)


def test_metrics_aggregation():
    m = Machine(MachineConfig(n_nodes=4), protocol="wbi")
    addr = m.alloc_word()

    def w(p):
        yield from p.write(addr, p.node_id)

    for i in range(4):
        m.spawn(w(m.processor(i)))
    m.run()
    met = m.metrics()
    assert isinstance(met, RunMetrics)
    assert met.completion_time == m.sim.now
    assert met.messages == m.net.message_count
    assert sum(met.msg_by_type.values()) == met.messages
    assert met.node_counters.get("wbi.write_misses", 0) >= 1
    assert met.messages_of("DATA") >= 1


def test_every_node_attached_and_dispatching():
    m = Machine(MachineConfig(n_nodes=8), protocol="primitives")
    for node in m.nodes:
        assert node.data_ctl is not None
        assert node.cbl is not None
        assert node.barrier_engine is not None
        assert node.sem_engine is not None


def test_determinism_across_identical_machines():
    def run():
        m = Machine(MachineConfig(n_nodes=4, seed=9), protocol="primitives")
        from repro import CBLLock

        lock = CBLLock(m)

        def w(p):
            for _ in range(3):
                yield from p.acquire(lock)
                yield from p.compute(10)
                yield from p.release(lock)

        for i in range(4):
            m.spawn(w(m.processor(i)))
        m.run()
        return m.sim.now, m.net.message_count

    assert run() == run()
