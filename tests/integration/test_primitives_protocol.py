"""Integration tests: the paper machine (Table 1 primitives + read-update)."""

import pytest

from repro import Machine, MachineConfig
from repro.network import MessageType


def prim_machine(n=4, **kw):
    cfg = MachineConfig(n_nodes=n, cache_blocks=64, cache_assoc=2, **kw)
    return Machine(cfg, protocol="primitives")


def test_local_read_write_no_coherence():
    """Plain READ/WRITE maintain no coherence: another node's cached copy
    goes stale (by design)."""
    m = prim_machine()
    addr = m.alloc_word()
    m.poke(addr, 1)
    vals = []
    p0, p1 = m.processor(0), m.processor(1)

    def reader_first():
        v = yield from p1.read(addr)
        vals.append(("before", v))
        yield p1.sim.timeout(500)
        v = yield from p1.read(addr)  # still the stale cached copy
        vals.append(("after", v))

    def writer():
        yield p0.sim.timeout(100)
        yield from p0.write(addr, 2)  # local only

    m.spawn(reader_first())
    m.spawn(writer())
    m.run()
    assert vals == [("before", 1), ("after", 1)]


def test_write_global_reaches_memory():
    m = prim_machine()
    addr = m.alloc_word()
    p = m.processor(0)

    def w():
        yield from p.write_global(addr, 9)
        yield from p.flush()

    m.spawn(w())
    m.run()
    assert m.peek_memory(addr) == 9


def test_read_global_bypasses_stale_cache():
    m = prim_machine()
    addr = m.alloc_word()
    m.poke(addr, 5)
    p0, p1 = m.processor(0), m.processor(1)
    vals = []

    def reader():
        v = yield from p1.read(addr)  # caches 5
        yield p1.sim.timeout(500)
        v_cached = yield from p1.read(addr)
        v_global = yield from p1.read_global(addr)
        vals.append((v, v_cached, v_global))

    def writer():
        yield p0.sim.timeout(100)
        yield from p0.write_global(addr, 6)
        yield from p0.flush()

    m.spawn(reader())
    m.spawn(writer())
    m.run()
    assert vals == [(5, 5, 6)]


def test_write_global_does_not_stall():
    """Buffered global writes return immediately (write-buffer decoupling)."""
    m = prim_machine()
    p = m.processor(0)
    addr = m.alloc_word()
    times = []

    def w():
        t0 = p.sim.now
        for i in range(10):
            yield from p.write_global(addr + 0, i)
        times.append(p.sim.now - t0)
        yield from p.flush()
        times.append(p.sim.now - t0)

    m.spawn(w())
    m.run()
    issue_time, total_time = times
    assert issue_time <= 10 * 2  # ~1 cache cycle per buffered write
    assert total_time > issue_time  # the flush actually waited


def test_read_update_receives_future_updates():
    """The core reader-initiated coherence behaviour."""
    m = prim_machine()
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    m.poke(addr, 10)
    p0, p1 = m.processor(0), m.processor(1)
    vals = []

    def subscriber():
        v = yield from p1.read_update(addr)
        vals.append(v)
        yield p1.sim.timeout(800)
        v = yield from p1.read(addr)  # plain read sees the pushed update
        vals.append(v)

    def writer():
        yield p0.sim.timeout(200)
        yield from p0.write_global(addr, 11)
        yield from p0.flush()

    m.spawn(subscriber())
    m.spawn(writer())
    m.run()
    assert vals == [10, 11]
    assert m.net.count_of(MessageType.RU_UPDATE) == 1


def test_update_propagates_down_chain_of_subscribers():
    m = prim_machine(n=8, ru_propagation="chain")
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    writers_done = []
    vals = {}
    subs = [m.processor(i) for i in range(1, 6)]  # 5 subscribers
    pw = m.processor(0)

    def subscriber(p):
        yield from p.read_update(addr)
        yield p.sim.timeout(2000)
        v = yield from p.read(addr)
        vals[p.node_id] = v

    def writer():
        yield pw.sim.timeout(500)
        yield from pw.write_global(addr, 42)
        yield from pw.flush()
        writers_done.append(pw.sim.now)

    for p in subs:
        m.spawn(subscriber(p))
    m.spawn(writer())
    m.run()
    assert all(v == 42 for v in vals.values())
    # One RU_UPDATE to the head + forwards down the chain + final ack home.
    assert m.net.count_of(MessageType.RU_UPDATE) == 1
    assert m.net.count_of(MessageType.RU_UPDATE_FWD) == 4
    assert m.net.count_of(MessageType.RU_ACK) == 1


def test_update_multicast_fans_out_from_home():
    """Default propagation: one parallel update per subscriber from home
    (Table 2's (n-1)||C_B), each acked under strict mode."""
    m = prim_machine(n=8, ru_propagation="multicast")
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    vals = {}
    subs = [m.processor(i) for i in range(1, 6)]
    pw = m.processor(0)

    def subscriber(p):
        yield from p.read_update(addr)
        yield p.sim.timeout(2000)
        v = yield from p.read(addr)
        vals[p.node_id] = v

    def writer():
        yield pw.sim.timeout(500)
        yield from pw.write_global(addr, 42)
        yield from pw.flush()

    for p in subs:
        m.spawn(subscriber(p))
    m.spawn(writer())
    m.run()
    assert all(v == 42 for v in vals.values())
    assert m.net.count_of(MessageType.RU_UPDATE) == 5
    assert m.net.count_of(MessageType.RU_UPDATE_FWD) == 0
    assert m.net.count_of(MessageType.RU_ACK) == 5


def test_multicast_faster_than_chain_for_many_subscribers():
    def completion(mode):
        m = prim_machine(n=16, ru_propagation=mode)
        block = m.alloc_block()
        addr = m.amap.word_addr(block, 0)
        pw = m.processor(0)

        def subscriber(p):
            yield from p.read_update(addr)

        def writer():
            yield pw.sim.timeout(500)
            yield from pw.write_global(addr, 1)
            yield from pw.flush()
            return pw.sim.now

        for i in range(1, 16):
            m.spawn(subscriber(m.processor(i)))
        m.spawn(writer())
        m.run()
        return m.sim.now

    assert completion("multicast") < completion("chain")


def test_strict_global_ack_waits_for_propagation():
    """With strict acks the writer's flush covers subscriber delivery."""
    m = prim_machine(strict_global_ack=True)
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    p0, p1 = m.processor(0), m.processor(1)
    order = []

    def subscriber():
        yield from p1.read_update(addr)
        order.append(("subscribed", p1.sim.now))

    def writer():
        yield p0.sim.timeout(300)
        yield from p0.write_global(addr, 1)
        yield from p0.flush()
        # After a strict flush, the subscriber's line must already be fresh.
        line = m.nodes[1].cache.peek(block)
        order.append(("flushed", line.data[0]))

    m.spawn(subscriber())
    m.spawn(writer())
    m.run()
    assert ("flushed", 1) in order


def test_reset_update_stops_updates():
    m = prim_machine()
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    p0, p1 = m.processor(0), m.processor(1)
    vals = []

    def subscriber():
        yield from p1.read_update(addr)
        yield from p1.reset_update(addr)
        yield p1.sim.timeout(1000)
        v = yield from p1.read(addr)  # stale: no update received
        vals.append(v)

    def writer():
        yield p0.sim.timeout(500)
        yield from p0.write_global(addr, 33)
        yield from p0.flush()

    m.spawn(subscriber())
    m.spawn(writer())
    m.run()
    assert vals == [0]
    assert m.net.count_of(MessageType.RU_UPDATE) == 0


def test_subscriber_list_mirror_and_pointers():
    """Home mirror and distributed prev/next pointers stay consistent."""
    m = prim_machine(n=8)
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    ids = [3, 5, 6]

    def subscriber(p, delay):
        yield p.sim.timeout(delay)
        yield from p.read_update(addr)

    for i, nid in enumerate(ids):
        m.spawn(subscriber(m.processor(nid), i * 100))
    m.run()
    home = m.amap.home_of(block)
    entry = m.nodes[home].directory.entry(block)
    # Subscribers prepend: mirror is reverse arrival order.
    assert entry.ru_subscribers == [6, 5, 3]
    # Distributed pointers match the mirror.
    order = entry.ru_subscribers
    for i, nid in enumerate(order):
        line = m.nodes[nid].cache.peek(block)
        assert line is not None and line.update
        assert line.prev == (order[i - 1] if i > 0 else None)
        assert line.next == (order[i + 1] if i + 1 < len(order) else None)


def test_per_word_dirty_bits_prevent_lost_update():
    """Two nodes locally write different words of one block; both survive
    write-back (the per-word dirty-bit mechanism, Section 3 item 6)."""
    cfg = MachineConfig(n_nodes=2, cache_blocks=4, cache_assoc=1)
    m = Machine(cfg, protocol="primitives")
    block = 0
    a0 = m.amap.word_addr(block, 0)
    a1 = m.amap.word_addr(block, 1)
    evict_addr = m.amap.word_addr(4, 0)  # same set as block 0

    def writer(p, addr, value):
        yield from p.write(addr, value)
        # Force the dirty line out (same cache set).
        yield from p.read(evict_addr)

    m.spawn(writer(m.processor(0), a0, 100))
    m.spawn(writer(m.processor(1), a1, 200))
    m.run()
    assert m.peek_memory(a0) == 100
    assert m.peek_memory(a1) == 200


def test_traced_writeback_names_its_dirty_words():
    """With a trace bus, the home's ``mem.wb`` instant lists the word
    addresses the writeback's dirty mask (an int bit mask) covers."""
    from repro.obs import ObsParams

    cfg = MachineConfig(n_nodes=2, cache_blocks=4, cache_assoc=1, obs=ObsParams())
    m = Machine(cfg, protocol="primitives")
    a1, a3 = m.amap.word_addr(0, 1), m.amap.word_addr(0, 3)
    evict_addr = m.amap.word_addr(4, 0)  # same set as block 0

    def writer(p):
        yield from p.write(a1, 100)
        yield from p.write(a3, 300)
        yield from p.read(evict_addr)

    m.spawn(writer(m.processor(1)))
    m.run()
    wbs = [ev.args for ev in m.obs.events if ev.name == "mem.wb"]
    assert wbs == [{"block": 0, "words": [a1, a3], "src": 1}]
    assert m.peek_memory(a1) == 100 and m.peek_memory(a3) == 300


def test_writer_sees_own_global_write_locally():
    m = prim_machine()
    addr = m.alloc_word()
    p = m.processor(0)
    vals = []

    def w():
        yield from p.read(addr)  # cache the block
        yield from p.write_global(addr, 8)
        v = yield from p.read(addr)  # local copy refreshed
        vals.append(v)
        yield from p.flush()

    m.spawn(w())
    m.run()
    assert vals == [8]


def test_rmw_on_primitives_machine():
    m = prim_machine()
    addr = m.alloc_word()
    results = []

    def f(p):
        old = yield from p.rmw(addr, "fetch_add", 1)
        results.append(old)

    for i in range(4):
        m.spawn(f(m.processor(i)))
    m.run()
    assert sorted(results) == [0, 1, 2, 3]


def test_ru_and_lock_mutually_exclusive():
    m = prim_machine()
    block = m.alloc_block()
    addr = m.amap.word_addr(block, 0)
    p0, p1 = m.processor(0), m.processor(1)

    def subscriber():
        yield from p0.read_update(addr)

    def locker():
        yield p1.sim.timeout(200)
        yield from p1.cbl.acquire(block, "write")

    m.spawn(subscriber())
    m.spawn(locker())
    with pytest.raises(RuntimeError, match="mutually exclusive"):
        m.run()
