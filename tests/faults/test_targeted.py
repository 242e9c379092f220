"""Targeted drops: spec validation and pinned recovery regressions.

Targeted entries (``(mtype_name, skip, count)``) are the adversary's tool:
"lose exactly the second LOCK_GRANT".  These tests pin (a) the spec's
validation surface, (b) that recovery absorbs targeted drop patterns —
timeout/reissue and stale-grant voiding counters all nonzero *and* the run
still produces correct results — and (c) that the fuzz shrinker can strip
targeted entries one at a time.
"""

import numpy as np
import pytest

from repro import Machine, MachineConfig
from repro.faults.plan import FaultSpec
from repro.sync.base import CBLLock
from repro.verify import check_all
from repro.verify.fuzz import Atom, Program, _fault_reductions, gen_program, run_program


# --------------------------------------------------------------------------
# Spec surface
# --------------------------------------------------------------------------

def test_unknown_message_type_rejected():
    with pytest.raises(ValueError, match="NO_SUCH_TYPE"):
        FaultSpec(targeted=(("NO_SUCH_TYPE", 0, 1),))


def test_negative_skip_or_count_rejected():
    with pytest.raises(ValueError):
        FaultSpec(targeted=(("LOCK_GRANT", -1, 1),))
    with pytest.raises(ValueError):
        FaultSpec(targeted=(("LOCK_GRANT", 0, -1),))


def test_is_null_accounts_for_targeted_entries():
    assert FaultSpec().is_null
    # A zero-count entry drops nothing: still a null spec.
    assert FaultSpec(targeted=(("LOCK_GRANT", 3, 0),)).is_null
    assert not FaultSpec(targeted=(("LOCK_GRANT", 0, 1),)).is_null


def test_describe_names_targeted_entries():
    spec = FaultSpec(targeted=(("LOCK_GRANT", 1, 2),))
    assert "target(LOCK_GRANT)[1:+2]" in spec.describe()


def test_shrinker_strips_targeted_entries_one_at_a_time():
    spec = FaultSpec(targeted=(("LOCK_GRANT", 0, 1), ("UNLOCK_RELEASE", 0, 1)))
    singles = [
        c.targeted for c in _fault_reductions(spec) if len(c.targeted) == 1
    ]
    assert (("LOCK_GRANT", 0, 1),) in singles
    assert (("UNLOCK_RELEASE", 0, 1),) in singles


# --------------------------------------------------------------------------
# Pinned recovery regressions
# --------------------------------------------------------------------------

def _lock_machine(faults):
    cfg = MachineConfig(n_nodes=8, cache_blocks=64, cache_assoc=2, seed=5)
    machine = Machine(cfg, protocol="primitives", faults=faults)
    lock = CBLLock(machine)
    return machine, lock


def test_recovery_under_targeted_grant_and_release_drops():
    """Dropped LOCK_GRANT / UNLOCK_RELEASE messages are reissued.

    Three workers increment a lock-protected counter four times each while
    the fabric swallows the second and third grants and the first release.
    The timeout/reissue machinery must recover every lost handoff: the
    counter ends exact, the structural invariants hold, and the resilience
    counters prove the recovery path (not luck) did it.
    """
    machine, lock = _lock_machine(
        FaultSpec(targeted=(("LOCK_GRANT", 1, 2), ("UNLOCK_RELEASE", 0, 1)))
    )

    def worker(proc):
        for _ in range(4):
            yield from proc.acquire(lock)
            v = yield from lock.read_data(proc, 0)
            yield from lock.write_data(proc, 0, v + 1)
            yield from proc.compute(10)
            yield from proc.release(lock)

    for i in range(3):
        machine.spawn(worker(machine.processor(i)), name=f"w{i}")
    machine.run_all()
    check_all(machine)

    home = machine.nodes[machine.amap.home_of(lock.block)]
    assert home.memory.read_word(machine.amap.word_addr(lock.block, 0)) == 12

    m = machine.metrics()
    assert m.faults["fault.targeted_drops"] > 0
    assert m.timeouts > 0
    assert m.retries > 0
    # The drop log names the targeted kills, and the tail rides RunMetrics.
    assert any("targeted drop" in line for line in m.drop_log_tail)


def test_void_stale_grants_fires_under_targeted_inv_drop():
    """A dropped INV forces a re-probe, voiding the reader's stale grant.

    Node 1 reads the word (its read grant is recorded for dedup replay);
    node 2 then writes it, so the home probes node 1 — voiding the
    recorded grant first — and the targeted drop of that INV forces the
    re-probe path too.  Both counters must be nonzero and the writer must
    observe its own write.
    """
    cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2, seed=5)
    machine = Machine(cfg, protocol="wbi", faults=FaultSpec(targeted=(("INV", 0, 1),)))
    word = machine.alloc_word()
    seen = {}

    def reader(proc):
        yield from proc.shared_read(word)
        yield from proc.compute(50)

    def writer(proc):
        yield from proc.compute(30)  # let the reader cache the block first
        yield from proc.shared_write(word, 7)
        seen["writer"] = (yield from proc.shared_read(word))

    machine.spawn(reader(machine.processor(1)), name="r")
    machine.spawn(writer(machine.processor(2)), name="w")
    machine.run_all()
    check_all(machine)

    assert seen["writer"] == 7
    m = machine.metrics()
    assert m.faults["fault.targeted_drops"] == 1
    assert m.node_counters["resilience.void_stale_grants"] > 0
    assert m.timeouts > 0 and m.retries > 0


def test_targeted_drops_consume_no_rng():
    """Adding a targeted entry never perturbs the probabilistic streams.

    Two runs with identical probabilistic faults — one with an extra
    targeted entry on a message type the workload never sends — must lose
    exactly the same probabilistic messages.
    """
    def run(spec):
        cfg = MachineConfig(n_nodes=4, cache_blocks=64, cache_assoc=2, seed=9)
        machine = Machine(cfg, protocol="wbi", faults=spec)
        word = machine.alloc_word()

        def worker(proc):
            for _ in range(3):
                yield from proc.rmw(word, "fetch_add", 1)
                yield from proc.compute(15)

        for i in range(4):
            machine.spawn(worker(machine.processor(i)), name=f"w{i}")
        machine.run_all()
        return machine.fault_plan.counters()

    base = run(FaultSpec(drop_prob=0.05, seed=11))
    with_target = run(
        FaultSpec(drop_prob=0.05, seed=11, targeted=(("SEM_GRANT", 0, 1),))
    )
    assert with_target["fault.targeted_drops"] == 0  # never sent, never hit
    assert base["fault.drops"] == with_target["fault.drops"]


def test_writeupdate_retried_read_miss_reexecutes():
    """One dropped ``DATA_BLOCK`` on write-update: the sharer registered
    by the lost reply misses the next pushed update, so its retried read
    must fetch current memory.  When the home replayed the recorded reply
    instead, node 3 installed block 6 as [0, 0, 0, 0] while memory held
    [1, 0, 0, 0] and the quiescence check failed."""
    program = gen_program(np.random.default_rng(0))
    assert run_program(
        program, protocol="writeupdate", model="sc", seed=0, jitter=0,
        faults=FaultSpec(targeted=(("DATA_BLOCK", 7, 1),)),
    ) is None


def test_wbi_late_grant_retry_is_absorbed_while_probe_is_out():
    """Seed 3, iteration 290 of ``fuzz --faults``: wbi × wo with 800-cycle
    delay spikes.  A grant runs late, the requester's retry reaches the
    home while the home's probe of that requester is still behind the
    grant, and the home used to re-execute the retry: a second grant the
    requester no longer waited for left node 1 holding block 3 SHARED
    without the directory listing it.  The voided record must absorb that
    retry (one more duplicate absorbed) until the probe is answered."""
    program = Program(
        n_threads=2,
        rounds=(
            (
                (Atom("publish", 1), Atom("consume", 1)),
                (Atom("publish", 1), Atom("consume", 0)),
            ),
            (
                (Atom("compute", 7),),
                (Atom("lock_inc", 1),),
            ),
        ),
    )
    counters = {}
    failure = run_program(
        program, protocol="wbi", model="wo", seed=1869111973,
        jitter=0.12846050166170642,
        faults=FaultSpec(spike_prob=0.05, spike_cycles=800, seed=136088181),
        on_machine=lambda m: counters.update(m.metrics().node_counters),
    )
    assert failure is None
    assert counters["resilience.void_stale_grants"] > 0
    assert counters["resilience.dup_requests"] == 4
