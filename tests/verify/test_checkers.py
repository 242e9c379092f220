"""Tests for the invariant checkers themselves: they pass on healthy
machines and catch deliberately injected corruption."""

import pytest

from repro import CBLLock, Machine, MachineConfig
from repro.cache.states import LineState, LockMode
from repro.memory.directory import DirState
from repro.verify import (
    InvariantViolation,
    check_all,
    check_lock_queues,
    check_ru_lists,
    check_wbi_coherence,
    check_writeupdate_coherence,
)


def wbi_machine_after_traffic():
    cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2)
    m = Machine(cfg, protocol="wbi")

    def w(p):
        for k in range(6):
            yield from p.write(k * 4, p.node_id)
            yield from p.read(((p.node_id + 1) % 4) * 4)

    for i in range(4):
        m.spawn(w(m.processor(i)))
    m.run()
    return m


def test_healthy_wbi_machine_passes():
    m = wbi_machine_after_traffic()
    counts = check_all(m)
    assert counts["wbi_blocks"] > 0


def test_detects_double_exclusive():
    m = wbi_machine_after_traffic()
    # Corrupt: force two EXCLUSIVE copies of one block.
    blk = 0
    m.nodes[0].cache.install(blk, [0] * 4, LineState.EXCLUSIVE)
    m.nodes[1].cache.install(blk, [0] * 4, LineState.EXCLUSIVE)
    with pytest.raises(InvariantViolation, match="EXCLUSIVE"):
        check_wbi_coherence(m)


def test_detects_unregistered_sharer():
    m = wbi_machine_after_traffic()
    blk = 99
    m.nodes[2].cache.install(blk, [0] * 4, LineState.SHARED)
    home = m.nodes[m.amap.home_of(blk)]
    entry = home.directory.entry(blk)
    entry.state = DirState.SHARED
    entry.sharers = set()  # node 2 missing
    with pytest.raises(InvariantViolation, match="not registered"):
        check_wbi_coherence(m)


def test_detects_stale_shared_data():
    m = wbi_machine_after_traffic()
    blk = 98
    home = m.nodes[m.amap.home_of(blk)]
    home.memory.write_block(blk, [1, 2, 3, 4])
    m.nodes[0].cache.install(blk, [9, 9, 9, 9], LineState.SHARED)
    home.directory.entry(blk).state = DirState.SHARED
    home.directory.entry(blk).sharers = {0}
    with pytest.raises(InvariantViolation, match="stale"):
        check_wbi_coherence(m)


def wu_machine_after_traffic():
    cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2)
    m = Machine(cfg, protocol="writeupdate")

    def w(p):
        for k in range(6):
            yield from p.write(k * 4, p.node_id + 1)
            yield from p.read(((p.node_id + 1) % 4) * 4)

    for i in range(4):
        m.spawn(w(m.processor(i)))
    m.run()
    return m


def test_healthy_wu_machine_passes():
    m = wu_machine_after_traffic()
    counts = check_all(m)
    assert counts["wu_blocks"] > 0
    assert counts["wbi_blocks"] == 0  # protocol-gated


def test_wu_detects_unregistered_copy():
    m = wu_machine_after_traffic()
    blk = 99
    m.nodes[2].cache.install(blk, [0] * 4, LineState.SHARED)
    home = m.nodes[m.amap.home_of(blk)]
    home.directory.entry(blk).sharers.discard(2)
    with pytest.raises(InvariantViolation, match="not a registered sharer"):
        check_writeupdate_coherence(m)


def test_wu_detects_dirty_copy():
    m = wu_machine_after_traffic()
    blk = 0
    line = next(iter(m.nodes[0].cache.valid_lines()), None)
    if line is None:  # ensure there is a copy to corrupt
        line, _ = m.nodes[0].cache.install(blk, [0] * 4, LineState.SHARED)
        m.nodes[m.amap.home_of(blk)].directory.entry(blk).sharers.add(0)
    line.write_word(0, 7, dirty=True)
    with pytest.raises(InvariantViolation, match="dirty"):
        check_writeupdate_coherence(m)


def test_wu_detects_stale_copy_at_quiescence():
    m = wu_machine_after_traffic()
    blk = 98
    home = m.nodes[m.amap.home_of(blk)]
    home.memory.write_block(blk, [1, 2, 3, 4])
    m.nodes[1].cache.install(blk, [9, 9, 9, 9], LineState.SHARED)
    home.directory.entry(blk).sharers.add(1)
    assert m.sim.pending_live() == 0  # run() drained the calendar
    with pytest.raises(InvariantViolation, match="quiescence"):
        check_writeupdate_coherence(m)


def ru_machine_with_subscribers():
    cfg = MachineConfig(n_nodes=8, cache_blocks=64, cache_assoc=2)
    m = Machine(cfg, protocol="primitives")
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)

    def sub(p, d):
        yield p.sim.timeout(d)
        yield from p.read_update(addr)

    for i, nid in enumerate((2, 4, 6)):
        m.spawn(sub(m.processor(nid), i * 50))
    m.run()
    return m, block


def test_healthy_ru_lists_pass():
    m, block = ru_machine_with_subscribers()
    assert check_ru_lists(m) >= 1


def test_detects_broken_ru_pointer():
    m, block = ru_machine_with_subscribers()
    home = m.nodes[m.amap.home_of(block)]
    subs = home.directory.entry(block).ru_subscribers
    line = m.nodes[subs[0]].cache.peek(block)
    line.next = 99  # sever the list
    with pytest.raises(InvariantViolation, match="pointers"):
        check_ru_lists(m)


def test_detects_missing_update_bit():
    m, block = ru_machine_with_subscribers()
    home = m.nodes[m.amap.home_of(block)]
    subs = home.directory.entry(block).ru_subscribers
    m.nodes[subs[0]].cache.peek(block).update = False
    with pytest.raises(InvariantViolation, match="update-bit"):
        check_ru_lists(m)


def cbl_machine_mid_queue():
    cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2)
    m = Machine(cfg, protocol="primitives")
    lock = CBLLock(m)

    def holder(p):
        yield from p.acquire(lock)
        yield from p.compute(10_000)
        yield from p.release(lock)

    def waiter(p, d):
        yield p.sim.timeout(d)
        yield from p.acquire(lock)
        yield from p.release(lock)

    m.spawn(holder(m.processor(0)))
    m.spawn(waiter(m.processor(1), 50))
    m.spawn(waiter(m.processor(2), 100))
    m.run(until=2_000)  # stop mid-hold: queue populated
    return m, lock


def test_healthy_lock_queue_passes():
    m, lock = cbl_machine_mid_queue()
    assert check_lock_queues(m) == 1


def test_detects_holder_not_prefix():
    m, lock = cbl_machine_mid_queue()
    entry = m.nodes[m.amap.home_of(lock.block)].directory.entry(lock.block)
    # Corrupt: mark the tail waiter a holder while the head still holds write.
    entry.lock_queue[-1][2] = True
    with pytest.raises(InvariantViolation):
        check_lock_queues(m)


def test_detects_wrong_tail_pointer():
    m, lock = cbl_machine_mid_queue()
    entry = m.nodes[m.amap.home_of(lock.block)].directory.entry(lock.block)
    entry.queue_pointer = 99
    with pytest.raises(InvariantViolation, match="queue_pointer"):
        check_lock_queues(m)


def test_detects_impossible_held_line():
    m, lock = cbl_machine_mid_queue()
    entry = m.nodes[m.amap.home_of(lock.block)].directory.entry(lock.block)
    waiter_id = entry.lock_queue[1][0]
    m.nodes[waiter_id].lockcache.peek(lock.block).lock = LockMode.WRITE
    with pytest.raises(InvariantViolation, match="mirror says waiter"):
        check_lock_queues(m)
