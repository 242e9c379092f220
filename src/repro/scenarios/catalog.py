"""The scenario catalog: deliberate attackers on every contention surface.

Each entry targets one of the machine's shared-resource arbitration
points — the CBL lock queue, the hardware barrier, the semaphore FIFO,
the cache-coherence home serialization, the READ-UPDATE subscriber list,
the write buffer's per-word dirty bits — plus two denial-of-progress
entries that attack the *fabric* itself with targeted message drops: one
that the timeout/reissue machinery must absorb, and one pushed past the
retry budget that must produce a structured
:class:`~repro.faults.diagnosis.HangDiagnosis` (never a silent hang).

Envelope bounds are pinned against measured behavior at the registered
configs with comfortable headroom; they are regression tripwires for
"the attack got catastrophically worse" and "the attack stopped biting",
not tight performance models.
"""

from __future__ import annotations

from ..faults.plan import FaultSpec, ResilienceParams
from ..sync.base import CBLLock, HWBarrier
from ..sync.semaphore import HWSemaphore
from ..system.config import MachineConfig
from ..workloads.demand import DemandParams, OpenLoopDemand
from .base import Envelope, Scenario, ScenarioWorld, register

__all__ = ["build_catalog"]


def _cfg(seed: int, **kw) -> MachineConfig:
    """Small, fast machine shape shared by the catalog (8 nodes)."""
    base = dict(n_nodes=8, cache_blocks=64, cache_assoc=2)
    base.update(kw)
    return MachineConfig(seed=seed, **base)


# ---------------------------------------------------------------------------
# Lock-based attacks
# ---------------------------------------------------------------------------

def _lock_convoy_build(world: ScenarioWorld, attack: bool) -> None:
    """Victims do real work under a CBL lock; attackers convoy the queue.

    Five attackers acquire/release with zero hold time, so every victim
    acquisition queues behind a convoy of handoffs (each a full
    grant/release transit through the lock's home).
    """
    m = world.machine
    lock = CBLLock(m)
    n_rounds = 6

    def victim(i: int):
        proc = m.processor(i)
        stream = m.rng.stream(f"scn.lock-convoy.victim{i}")

        def body():
            for _ in range(n_rounds):
                yield from proc.acquire(lock)
                v = yield from lock.read_data(proc, 0)
                yield from lock.write_data(proc, 0, v + 1)
                yield from proc.compute(10 + int(stream.integers(0, 6)))
                yield from proc.release(lock)

        return body()

    for i in range(3):
        world.spawn_victim(victim(i), f"v{i}")

    def final_count():
        # Lock data rides the grant, so after the last release it lives in
        # the holder-side lock cache or at the home; peek via the engine's
        # home directory copy.
        home = m.nodes[m.amap.home_of(lock.block)]
        got = home.memory.read_word(m.amap.word_addr(lock.block, 0))
        want = 3 * n_rounds
        assert got == want, f"lock-convoy: counter {got} != {want}"

    world.check(final_count)

    if attack:
        for j in range(5):
            proc = m.processor(3 + j)

            def atk(proc=proc):
                for _ in range(12):
                    yield from proc.acquire(lock)
                    yield from proc.release(lock)

            world.spawn_attacker(atk(), f"a{j}")


def _queue_thrash_build(world: ScenarioWorld, attack: bool) -> None:
    """Attackers alternate read/write-mode acquires to churn the CBL queue.

    Alternating modes defeats read-grant batching: every writer acquire
    fences the queue, so the engine wakes readers one batch at a time and
    the victims' write acquisitions keep landing behind freshly rebuilt
    queues.
    """
    m = world.machine
    lock = CBLLock(m)
    n_rounds = 5

    def victim(i: int):
        proc = m.processor(i)

        def body():
            for _ in range(n_rounds):
                yield from proc.acquire(lock)
                v = yield from lock.read_data(proc, 0)
                yield from lock.write_data(proc, 0, v + 1)
                yield from proc.compute(8)
                yield from proc.release(lock)

        return body()

    for i in range(2):
        world.spawn_victim(victim(i), f"v{i}")

    def final_count():
        home = m.nodes[m.amap.home_of(lock.block)]
        got = home.memory.read_word(m.amap.word_addr(lock.block, 0))
        want = 2 * n_rounds
        assert got == want, f"cbl-queue-thrash: counter {got} != {want}"

    world.check(final_count)

    if attack:
        for j in range(6):
            proc = m.processor(2 + j)

            def atk(proc=proc):
                for _ in range(8):
                    yield from proc.acquire(lock, mode="read")
                    yield from proc.release(lock)
                    yield from proc.acquire(lock, mode="write")
                    yield from proc.release(lock)

            world.spawn_attacker(atk(), f"a{j}")


# ---------------------------------------------------------------------------
# Coherence-layer attacks
# ---------------------------------------------------------------------------

def _ping_pong_build(world: ScenarioWorld, attack: bool) -> None:
    """WBI hot-block ping-pong: attackers write a neighbor word.

    The victim RMWs word 0 of the hot block; attackers write word 1 of
    the *same block*, so every attacker write yanks the line exclusive and
    every victim access misses.  Block-granularity transfers preserve word
    0, so the victim's count survives — the attack costs latency, never
    correctness.
    """
    m = world.machine
    hot_block = m.alloc_block()
    w_victim = m.amap.word_addr(hot_block, 0)
    w_attack = m.amap.word_addr(hot_block, 1)
    n_rounds = 30

    def victim():
        proc = m.processor(0)

        def body():
            for _ in range(n_rounds):
                yield from proc.rmw(w_victim, "fetch_add", 1)
                yield from proc.compute(3)
            v = yield from proc.shared_read(w_victim)
            world.record("final", v)

        return body()

    world.spawn_victim(victim(), "v0")
    world.expect("final", n_rounds, "hot-block-ping-pong counter")

    if attack:
        for j in range(4):
            proc = m.processor(1 + j)

            def atk(proc=proc, j=j):
                for k in range(20):
                    yield from proc.shared_write(w_attack, j * 100 + k)
                    yield from proc.compute(2)

            world.spawn_attacker(atk(), f"a{j}")


def _false_sharing_build(world: ScenarioWorld, attack: bool) -> None:
    """Per-word dirty-bit storm: four writers, one block, disjoint words.

    Under the primitives protocol, global writes from different nodes to
    different words of one block all serialize at the block's home (and
    each flush waits for its acks), so the victim's word-0 stream crawls
    behind the attackers' word-1..3 streams even though no data is
    actually shared.
    """
    m = world.machine
    block = m.alloc_block()
    words = [m.amap.word_addr(block, i) for i in range(m.cfg.words_per_block)]
    n_rounds = 25

    def victim():
        proc = m.processor(0)

        def body():
            for k in range(n_rounds):
                yield from proc.write_global(words[0], k)
                yield from proc.flush()
                yield from proc.compute(4)

        return body()

    world.spawn_victim(victim(), "v0")

    def final_word():
        got = m.peek_memory(words[0])
        assert got == n_rounds - 1, f"false-sharing: word0 {got} != {n_rounds - 1}"

    world.check(final_word)

    if attack:
        for j in range(3):
            proc = m.processor(1 + j)
            word = words[1 + j]

            def atk(proc=proc, word=word):
                for k in range(20):
                    yield from proc.write_global(word, k)
                    if k % 4 == 3:
                        yield from proc.flush()
                yield from proc.flush()

            world.spawn_attacker(atk(), f"a{j}")


def _ru_churn_build(world: ScenarioWorld, attack: bool) -> None:
    """READ-UPDATE subscribe/unsubscribe churn against a hot producer.

    Attackers cycle READ-UPDATE / RESET-UPDATE on the victim's block, so
    the subscriber list the victim's strict global-write acks must fan out
    to keeps growing and shrinking under it — every victim flush pays for
    whatever subscriber population the churn left behind.
    """
    m = world.machine
    hot = m.alloc_word()
    n_rounds = 25

    def victim():
        proc = m.processor(0)

        def body():
            for k in range(n_rounds):
                yield from proc.write_global(hot, k)
                yield from proc.flush()
                yield from proc.compute(5)

        return body()

    world.spawn_victim(victim(), "v0")

    def final_word():
        got = m.peek_memory(hot)
        assert got == n_rounds - 1, f"ru-churn: hot word {got} != {n_rounds - 1}"

    world.check(final_word)

    if attack:
        for j in range(5):
            proc = m.processor(1 + j)
            stream = m.rng.stream(f"scn.ru-churn.attacker{j}")

            def atk(proc=proc, stream=stream):
                for _ in range(12):
                    yield from proc.read_update(hot)
                    yield from proc.compute(5 + int(stream.integers(0, 11)))
                    yield from proc.reset_update(hot)

            world.spawn_attacker(atk(), f"a{j}")


# ---------------------------------------------------------------------------
# Synchronization-engine attacks
# ---------------------------------------------------------------------------

def _barrier_straggler_build(world: ScenarioWorld, attack: bool) -> None:
    """One deliberate straggler stretches every barrier epoch.

    The hardware barrier's fan-in is as fast as its slowest arrival; the
    attacker joins the episode with a compute phase ~8x the victims', so
    each epoch's release waits on it.  Baseline runs a 4-way barrier,
    attack a 5-way — the allocation (one block) is identical.
    """
    m = world.machine
    n_victims, epochs = 4, 6
    bar = HWBarrier(m, n_victims + (1 if attack else 0))

    def victim(i: int):
        proc = m.processor(i)
        stream = m.rng.stream(f"scn.barrier-straggler.victim{i}")

        def body():
            for _ in range(epochs):
                yield from proc.compute(18 + int(stream.integers(0, 5)))
                yield from proc.barrier(bar)

        return body()

    for i in range(n_victims):
        world.spawn_victim(victim(i), f"v{i}")

    if attack:
        proc = m.processor(n_victims)

        def straggler():
            for _ in range(epochs):
                yield from proc.compute(170)
                yield from proc.barrier(bar)

        world.spawn_attacker(straggler(), "straggler")


def _np_flood_build(world: ScenarioWorld, attack: bool) -> None:
    """NP-Synch request flood: attackers spam P/V on the victims' semaphore.

    Semaphore P is NP-Synch (no write-buffer drain), so attackers can
    issue acquisitions back-to-back; the home's FIFO waiter queue then
    makes each victim P wait behind a flood of zero-hold acquisitions.
    """
    m = world.machine
    sem = HWSemaphore(m, initial=1)
    n_rounds = 8

    def victim(i: int):
        proc = m.processor(i)

        def body():
            for _ in range(n_rounds):
                yield from sem.p(proc)
                yield from proc.compute(8)
                yield from sem.v(proc)
                yield from proc.compute(4)

        return body()

    for i in range(2):
        world.spawn_victim(victim(i), f"v{i}")

    if attack:
        for j in range(6):
            proc = m.processor(2 + j)

            def atk(proc=proc):
                for _ in range(12):
                    yield from sem.p(proc)
                    yield from sem.v(proc)

            world.spawn_attacker(atk(), f"a{j}")


# ---------------------------------------------------------------------------
# Denial-of-progress (fabric attacks)
# ---------------------------------------------------------------------------

def _dop_build(world: ScenarioWorld, attack: bool) -> None:
    """Lock workload whose grant/handoff messages get targeted drops.

    The fault plan (attack runs only) swallows specific LOCK_GRANT and
    UNLOCK_RELEASE deliveries; the timeout/reissue machinery must reissue
    them and the run must still produce the correct counter.
    """
    m = world.machine
    lock = CBLLock(m)
    n_rounds = 4

    def victim(i: int):
        proc = m.processor(i)

        def body():
            for _ in range(n_rounds):
                yield from proc.acquire(lock)
                v = yield from lock.read_data(proc, 0)
                yield from lock.write_data(proc, 0, v + 1)
                yield from proc.compute(10)
                yield from proc.release(lock)

        return body()

    for i in range(3):
        world.spawn_victim(victim(i), f"v{i}")

    def final_count():
        home = m.nodes[m.amap.home_of(lock.block)]
        got = home.memory.read_word(m.amap.word_addr(lock.block, 0))
        want = 3 * n_rounds
        assert got == want, f"denial-of-progress: counter {got} != {want}"

    world.check(final_count)

    if attack:
        for j in range(2):
            proc = m.processor(3 + j)

            def atk(proc=proc):
                for _ in range(6):
                    yield from proc.acquire(lock)
                    yield from proc.release(lock)

            world.spawn_attacker(atk(), f"a{j}")


def _wu_update_storm_build(world: ScenarioWorld, attack: bool) -> None:
    """Write-update storm against a Zipf-hot key, with demand-driven victims.

    The victims are a miniature storage service: three nodes serve a
    bursty open-loop demand schedule drawn through the demand layer
    (:mod:`repro.workloads.demand`), mostly reading the keys the schedule
    names.  Under the write-update protocol every reader of a word is
    registered as a sharer *forever*, so when the attackers sit down on
    the Zipf-hottest key and write it in a tight loop, each write pushes
    an update to every registered sharer — the victims' own popularity
    distribution becomes the attack's fan-out amplifier.  This is the
    coverage gap the catalog had: wbi and primitives were attacked above,
    but the writeupdate protocol's always-push sharing had no adversary.
    """
    m = world.machine
    wpb = m.cfg.words_per_block
    n_blocks = 8
    first = m.alloc_block(n_blocks)
    blocks = list(range(first, first + n_blocks))
    # One scratch block gives every server a private word to write: under
    # write-update, concurrent writers to the *same* word can leave a
    # sharer's copy update-reordered (the coherence checker rejects that),
    # so each word below has exactly one writer for the whole run.
    scratch = m.alloc_block(1)
    demand = OpenLoopDemand(
        DemandParams(
            process="bursty",
            rate=0.08,
            horizon=2_500.0,
            n_clients=50_000,
            n_keys=64,
            zipf_s=1.2,
        )
    )
    sched = demand.build(m.rng.stream("scn.wu-update-storm.demand"))
    # Key 0 is the Zipf mode by construction; resolve it from the data so
    # the attack tracks the demand layer rather than assuming it.
    hot_key = int(sched.hot_key_counts().argmax())
    hot_block = blocks[hot_key % n_blocks]
    n_servers = 3
    world.record("requests", sched.n_requests)

    def victim(i: int):
        proc = m.processor(i)
        rows = [r for r in range(sched.n_requests) if int(sched.key[r]) % n_servers == i]
        issue = [float(sched.issue_t[r]) for r in rows]
        keys = [int(sched.key[r]) for r in rows]
        my_word = m.amap.word_addr(scratch, i)

        def body():
            served = 0
            for j in range(len(rows)):
                while m.sim.now < issue[j]:
                    yield from proc.compute(issue[j] - m.sim.now)
                addr = m.amap.word_addr(blocks[keys[j] % n_blocks], keys[j] % wpb)
                yield from proc.shared_read(addr)
                if j % 8 == 7:
                    yield from proc.shared_write(my_word, served)
                served += 1
            # Closing audit sweep, deliberately *not* gated on issue
            # times: open-loop victims otherwise idle at the arrival
            # gates and absorb any fabric congestion invisibly.  Every
            # write here crosses the network (write-update writes are
            # never cache-silent), so queueing behind the storm's update
            # fan-out lands directly in the victims' makespan.
            for _ in range(60):
                yield from proc.shared_write(my_word, served)
            world.record(f"served{i}", served)

        return body()

    expect = [0] * n_servers
    for r in range(sched.n_requests):
        expect[int(sched.key[r]) % n_servers] += 1
    for i in range(n_servers):
        world.spawn_victim(victim(i), f"v{i}")
        world.expect(f"served{i}", expect[i], f"wu-update-storm server {i}")

    if attack:
        # Every service key mapping to the hot block shares word index
        # ``hot_key % wpb`` (key strides of n_blocks are multiples of
        # wpb), so the other words of that block are victim-free.  Each
        # attacker storms its *own* free word: write-update pushes every
        # write to all registered sharers of the block — the victims —
        # while no two writers ever race on one word (racing writers can
        # leave sharers update-reordered, which the coherence checker
        # rightly rejects; this attack is about fan-out, not races).
        for j in range(wpb - 1):
            proc = m.processor(n_servers + j)
            atk_addr = m.amap.word_addr(hot_block, (hot_key + 1 + j) % wpb)

            def atk(proc=proc, atk_addr=atk_addr):
                yield from proc.shared_read(atk_addr)  # register as sharer
                for _ in range(250):
                    yield from proc.shared_write(atk_addr, proc.node_id)

            world.spawn_attacker(atk(), f"a{j}")


def build_catalog() -> None:
    """Register the full catalog (idempotence left to the module guard)."""
    register(Scenario(
        name="lock-convoy",
        description="zero-hold attackers convoy the CBL lock queue",
        protocol="primitives",
        config=_cfg,
        build=_lock_convoy_build,
        envelope=Envelope(max_slowdown=6.0, min_slowdown=1.4, max_message_blowup=10.0),
        tags=("lock", "cbl"),
    ))
    register(Scenario(
        name="cbl-queue-thrash",
        description="alternating read/write acquires churn the CBL wake batching",
        protocol="primitives",
        config=_cfg,
        build=_queue_thrash_build,
        envelope=Envelope(max_slowdown=6.0, min_slowdown=1.5, max_message_blowup=20.0),
        tags=("lock", "cbl"),
    ))
    register(Scenario(
        name="hot-block-ping-pong",
        description="WBI exclusive-ownership ping-pong on one hot block",
        protocol="wbi",
        config=_cfg,
        build=_ping_pong_build,
        envelope=Envelope(max_slowdown=20.0, min_slowdown=3.0, max_message_blowup=15.0),
        tags=("coherence", "wbi"),
    ))
    register(Scenario(
        name="false-sharing",
        description="disjoint-word writers storm one block's per-word dirty bits",
        protocol="primitives",
        config=_cfg,
        build=_false_sharing_build,
        envelope=Envelope(max_slowdown=4.0, min_slowdown=1.2, max_message_blowup=8.0),
        tags=("coherence", "writebuffer"),
    ))
    register(Scenario(
        name="ru-churn",
        description="READ-UPDATE subscribe/unsubscribe churn against a producer",
        protocol="primitives",
        config=_cfg,
        build=_ru_churn_build,
        envelope=Envelope(max_slowdown=7.0, min_slowdown=1.5, max_message_blowup=20.0),
        tags=("coherence", "read-update"),
    ))
    register(Scenario(
        name="barrier-straggler",
        description="one deliberate straggler stretches every barrier epoch",
        protocol="primitives",
        config=_cfg,
        build=_barrier_straggler_build,
        envelope=Envelope(max_slowdown=9.0, min_slowdown=3.0, max_message_blowup=3.0),
        tags=("barrier",),
    ))
    register(Scenario(
        name="np-flood",
        description="NP-Synch P/V flood starves the victims' semaphore",
        protocol="primitives",
        config=_cfg,
        build=_np_flood_build,
        envelope=Envelope(max_slowdown=7.0, min_slowdown=1.5, max_message_blowup=12.0),
        tags=("semaphore", "np-synch"),
    ))
    register(Scenario(
        name="denial-of-progress",
        description="targeted LOCK_GRANT/UNLOCK_RELEASE drops; recovery must absorb them",
        protocol="primitives",
        config=_cfg,
        build=_dop_build,
        fault_spec=lambda seed: FaultSpec(
            targeted=(("LOCK_GRANT", 1, 2), ("UNLOCK_RELEASE", 0, 1)),
        ),
        envelope=Envelope(
            max_slowdown=20.0,
            min_slowdown=1.5,
            require_recovery=("resilience.timeouts", "resilience.retries"),
            require_faults=("fault.targeted_drops",),
        ),
        tags=("faults", "resilience"),
    ))
    register(Scenario(
        name="denial-of-progress-overbudget",
        description="grant drop with retries disabled: must yield a HangDiagnosis",
        protocol="primitives",
        config=lambda seed: _cfg(seed, resilience=ResilienceParams(max_retries=0)),
        build=_dop_build,
        fault_spec=lambda seed: FaultSpec(targeted=(("LOCK_GRANT", 1, 1),)),
        envelope=Envelope(
            max_slowdown=1e9,  # unused under hang_policy="expect"
            min_slowdown=0.0,
            require_faults=("fault.targeted_drops",),
            hang_policy="expect",
        ),
        max_cycles=500_000,
        tags=("faults", "watchdog"),
    ))
    register(Scenario(
        name="wu-update-storm",
        description="write-update storm on the Zipf-hot key of a demand-driven service",
        protocol="writeupdate",
        config=_cfg,
        build=_wu_update_storm_build,
        envelope=Envelope(max_slowdown=1.6, min_slowdown=1.03, max_message_blowup=18.0),
        tags=("coherence", "writeupdate", "demand"),
    ))
